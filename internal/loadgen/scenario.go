package loadgen

// The scenario zoo and its topologies. Each scenario pairs a rate
// profile (constant, ramp, square-wave burst, long-lived low-rate
// sessions) with a payload drawn from the scenario-shape workload
// patterns, and runs against the same three topologies as the
// saturation bench: one aerodromed, the shard router fronting two, and
// the router under fault injection with a backend killed mid-run. Rows
// land in the shared BENCH json flow as engine "load-<scenario>-<topo>"
// with the latency-quantile and open-loop-accounting columns.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"aerodrome"
	"aerodrome/internal/bench"
	"aerodrome/internal/faultinject"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/server"
	"aerodrome/internal/workload"
)

// Topology labels of the load rows.
const (
	TopoSingle       = "single"
	TopoRouter2      = "router2"
	TopoRouter2Chaos = "router2-chaos"
	// TopoExternal labels rows measured against a caller-supplied URL
	// (the e2e script's daemons) rather than an in-process topology.
	TopoExternal = "ext"
)

// loadPrimeBudget bounds the pre-run connectivity check.
const loadPrimeBudget = 10 * time.Second

// Scenario is one named load shape: an arrival profile plus the payload
// and harness sizing it drives.
type Scenario struct {
	Name     string
	Profile  RateProfile
	Duration time.Duration
	Runner   RunnerConfig
	// Pattern and Inject pick the payload trace; Events sizes it.
	Pattern workload.Pattern
	Inject  workload.Violation
	Events  int64
	// TenantBudget is the per-backend BytesPerSec granted to every
	// tenant of in-process topologies (0 = effectively unlimited).
	// External topologies use whatever the daemon was booted with.
	TenantBudget int64
	// Sessions switches the payload from one-shot checks to long-lived
	// incremental sessions fed Chunks line-aligned pieces per arrival.
	Sessions bool
	Chunks   int
	// Smoke marks the scenario as e2e-only: MeasureLoadRows skips it,
	// the e2e script drives it via MeasureScenarioAgainst.
	Smoke bool
}

// Scenarios returns the zoo. Every profile is seeded, so schedules —
// and with them the admission pressure each run applies — are
// reproducible across machines.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// Steady state: constant moderate rate, generous budget. The
			// baseline the other rows are read against.
			Name:     "steady",
			Profile:  RateProfile{Tenant: "load-steady", Shape: ShapeConstant, PeakRPS: 120, Seed: 1},
			Duration: 1200 * time.Millisecond,
			Runner:   RunnerConfig{Workers: 16, Queue: 64},
			Pattern:  workload.PatternProducerConsumer, Events: 2000,
		},
		{
			// Ramp: arrival rate grows linearly to past the steady rate,
			// exposing where queueing starts to show in the tail.
			Name:     "ramp",
			Profile:  RateProfile{Tenant: "load-ramp", Shape: ShapeRamp, BaseRPS: 10, PeakRPS: 240, Seed: 2},
			Duration: 1400 * time.Millisecond,
			Runner:   RunnerConfig{Workers: 16, Queue: 64},
			Pattern:  workload.PatternBarrier, Events: 2000,
		},
		{
			// Burst: square-wave overload against a deliberately tight
			// admission budget. The payload carries an injected violation,
			// so every admitted check also pins the violating-verdict path;
			// the 429s this scenario must produce are the quota layer
			// doing its job, and the thrash pattern's fresh-variable churn
			// makes each admitted check adversarial for interning.
			Name:     "burst",
			Profile:  RateProfile{Tenant: "load-burst", Shape: ShapeSquare, BaseRPS: 20, PeakRPS: 400, Period: 600 * time.Millisecond, Seed: 3},
			Duration: 1500 * time.Millisecond,
			Runner:   RunnerConfig{Workers: 16, Queue: 32},
			Pattern:  workload.PatternThrash, Inject: workload.ViolationCross,
			Events: 2000, TenantBudget: 192 << 10,
		},
		{
			// Sessions: low-rate long-lived incremental sessions, each
			// arrival one chunk. Completion latency pins the session plane
			// (create/feed/finalize with idempotent sequencing) under
			// concurrent load, and the finalize verdict is byte-compared
			// to the local reference.
			Name:     "sessions",
			Profile:  RateProfile{Tenant: "load-sessions", Shape: ShapeConstant, PeakRPS: 40, Seed: 4},
			Duration: 1500 * time.Millisecond,
			Runner:   RunnerConfig{Workers: 4, Queue: 32},
			Pattern:  workload.PatternConvoy, Events: 1500,
			Sessions: true, Chunks: 5,
		},
		{
			// Burst-smoke: the CI e2e leg — same square-wave shape at a
			// rate a shared runner sustains, driven against externally
			// booted daemons (MODE=load in scripts/e2e_server.sh).
			Name:     "burst-smoke",
			Profile:  RateProfile{Tenant: "load-smoke", Shape: ShapeSquare, BaseRPS: 5, PeakRPS: 60, Period: 400 * time.Millisecond, Seed: 5},
			Duration: 1200 * time.Millisecond,
			Runner:   RunnerConfig{Workers: 8, Queue: 32},
			Pattern:  workload.PatternProducerConsumer, Events: 1500,
			TenantBudget: 256 << 10,
			Smoke:        true,
		},
	}
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q", name)
}

// payloadConfig is the workload config behind a scenario's trace.
func (s Scenario) payloadConfig() workload.Config {
	return workload.Config{
		Name: "load-" + s.Name, Threads: 6, Vars: 64, Locks: 4,
		Events: s.Events, OpsPerTxn: 3, Pattern: s.Pattern,
		Inject: s.Inject, InjectAt: 0.7, Seed: 20260808,
	}
}

// Payload renders the scenario's trace to STD bytes and computes the
// local reference verdict every remote answer is pinned against.
func (s Scenario) Payload() ([]byte, Expect, error) {
	var buf bytes.Buffer
	if _, err := rapidio.WriteSource(&buf, workload.New(s.payloadConfig())); err != nil {
		return nil, Expect{}, fmt.Errorf("loadgen: rendering %s: %w", s.Name, err)
	}
	data := buf.Bytes()
	rep, err := aerodrome.CheckSTD(bytes.NewReader(data), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		return nil, Expect{}, fmt.Errorf("loadgen: local reference for %s: %w", s.Name, err)
	}
	return data, ExpectFromReport(rep), nil
}

// SplitChunks cuts STD text into n line-aligned chunks for session
// feeding.
func SplitChunks(data []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if n > len(lines) {
		n = len(lines)
	}
	chunks := make([][]byte, 0, n)
	per := (len(lines) + n - 1) / n
	for i := 0; i < len(lines); i += per {
		end := i + per
		if end > len(lines) {
			end = len(lines)
		}
		chunks = append(chunks, bytes.Join(lines[i:end], nil))
	}
	return chunks
}

// Measure runs the scenario open-loop against baseURL and assembles the
// BENCH row. It primes connectivity first, scrapes the failover counter
// around the run, and reports — it does not assert; callers decide
// whether Hard or GaveUp counts fail the run.
func (s Scenario) Measure(topo, baseURL string, client *http.Client) (bench.BenchRow, RunStats, error) {
	data, exp, err := s.Payload()
	if err != nil {
		return bench.BenchRow{}, RunStats{}, err
	}
	if err := Prime(client, baseURL, data, loadPrimeBudget); err != nil {
		return bench.BenchRow{}, RunStats{}, fmt.Errorf("loadgen: %s against %s: %w", s.Name, topo, err)
	}
	var target Target
	var sessTarget *SessionTarget
	if s.Sessions {
		sessTarget = NewSessionTarget(s.Runner, baseURL, SplitChunks(data, s.Chunks), exp,
			"load-"+s.Name)
		if client != nil {
			sessTarget.Client = client
		}
		target = sessTarget
	} else {
		target = &CheckTarget{
			BaseURL: baseURL, Data: data, Expect: exp,
			KeyPrefix: "load-" + s.Name, Client: client,
		}
	}
	failBefore := Failovers(client, baseURL)
	stats := Run(s.Runner, s.Profile.Schedule(s.Duration), target)
	if sessTarget != nil {
		sessTarget.Close()
	}
	row := bench.BenchRow{
		Workload: s.payloadConfig().Name,
		Pattern:  string(s.Pattern),
		Threads:  s.payloadConfig().Threads,
		Engine:   fmt.Sprintf("load-%s-%s", s.Name, topo),
		Events:   stats.Events,
		Runs:     1,

		P50Ms:        round3(stats.P50()),
		P99Ms:        round3(stats.P99()),
		P999Ms:       round3(stats.P999()),
		Arrivals:     stats.Arrivals,
		Completed:    stats.Completed,
		Rejected:     stats.Rejected,
		Failovers:    Failovers(client, baseURL) - failBefore,
		OmissionDebt: stats.Debt,
		GaveUp:       stats.GaveUp,
		GaveUpMaxMs:  round3(stats.GaveUpMax()),
	}
	return row, stats, nil
}

// MeasureAgainst runs the named scenario against an externally booted
// topology (the e2e script's daemons) and fails on any client-visible
// hard failure.
func MeasureAgainst(name, baseURL string) (bench.BenchRow, error) {
	s, err := ByName(name)
	if err != nil {
		return bench.BenchRow{}, err
	}
	row, stats, err := s.Measure(TopoExternal, baseURL, nil)
	if err != nil {
		return bench.BenchRow{}, err
	}
	if stats.Hard > 0 {
		return bench.BenchRow{}, fmt.Errorf("loadgen: %s against %s: %d hard failures", name, baseURL, stats.Hard)
	}
	return row, nil
}

// newLoadBackend boots one in-process aerodromed granting every tenant
// the scenario's budget.
func newLoadBackend(s Scenario) (*server.Server, *httptest.Server) {
	cfg := server.Config{Algorithm: aerodrome.Optimized}
	if s.TenantBudget > 0 {
		cfg.TenantQuota = server.TenantQuota{BytesPerSec: s.TenantBudget}
	}
	srv, err := server.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("loadgen: server: %v", err))
	}
	return srv, httptest.NewServer(srv)
}

// MeasureLoadRows measures the full grid: every non-smoke scenario
// against the single and router+2 topologies, plus the sessions
// scenario against the chaos topology (fault-injected router with one
// backend killed mid-run — the row whose failover column is expected to
// move). Hard failures panic, mirroring the saturation harness: wrong
// answers or non-retryable errors invalidate the whole artifact. The
// burst scenario additionally asserts its reason to exist — a tight
// budget must actually produce rejections.
func MeasureLoadRows() []bench.BenchRow {
	var rows []bench.BenchRow
	measure := func(s Scenario, topo, url string, client *http.Client) {
		row, stats, err := s.Measure(topo, url, client)
		if err != nil {
			panic(err.Error())
		}
		if stats.Hard > 0 {
			panic(fmt.Sprintf("loadgen: %s on %s: %d client-visible hard failures", s.Name, topo, stats.Hard))
		}
		if s.Name == "burst" && stats.Rejected == 0 {
			panic(fmt.Sprintf("loadgen: %s on %s: overload produced no rejections — quota layer asleep", s.Name, topo))
		}
		rows = append(rows, row)
	}

	for _, s := range Scenarios() {
		if s.Smoke {
			continue
		}

		srv, ts := newLoadBackend(s)
		measure(s, TopoSingle, ts.URL, nil)
		ts.Close()
		srv.Close()

		s1, ts1 := newLoadBackend(s)
		s2, ts2 := newLoadBackend(s)
		rt, err := server.NewRouter(server.RouterConfig{
			Backends: []string{ts1.URL, ts2.URL}, ProbeOnStart: true,
		})
		if err != nil {
			panic(fmt.Sprintf("loadgen: router: %v", err))
		}
		rts := httptest.NewServer(rt)
		measure(s, TopoRouter2, rts.URL, nil)
		rts.Close()
		rt.Close()
		ts1.Close()
		ts2.Close()
		s1.Close()
		s2.Close()
	}

	// Chaos: the sessions scenario through a fault-injected router, with
	// one backend killed halfway — journaled failover must keep every
	// session whole (hard failures still panic above), and the row
	// records how many sessions the router actually replayed.
	sess, err := ByName("sessions")
	if err != nil {
		panic(err.Error())
	}
	sess.Runner.Workers = 8 // more live sessions → more land on the doomed backend
	s3, ts3 := newLoadBackend(sess)
	s4, ts4 := newLoadBackend(sess)
	inj := faultinject.New(faultinject.Config{
		ErrorProb:   0.03,
		LatencyProb: 0.05,
		Latency:     2 * time.Millisecond,
		Seed:        42,
	})
	crt, err := server.NewRouter(server.RouterConfig{
		Backends:     []string{ts3.URL, ts4.URL},
		ProbeOnStart: true,
		Transport:    inj.WrapTransport(nil),
	})
	if err != nil {
		panic(fmt.Sprintf("loadgen: chaos router: %v", err))
	}
	crts := httptest.NewServer(crt)
	kill := time.AfterFunc(sess.Duration/2, func() { ts4.Close() })
	measure(sess, TopoRouter2Chaos, crts.URL, nil)
	kill.Stop()
	crts.Close()
	crt.Close()
	ts3.Close()
	ts4.Close()
	s3.Close()
	s4.Close()
	return rows
}
