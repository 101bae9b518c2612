package main

// serve-check: open-loop POST /v1/check to one aerodromed with default
// settings at two fixed rates, a closed loop on both connections, then a
// search upward for the highest rate that still meets the latency limit
// without a growing backlog.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"
)

// conns is the number of concurrent connections every workload uses: the
// box's CPU count, so the load generator never oversubscribes it.
const conns = 2

// newConnClients returns one HTTP client per connection, each holding at
// most one keep-alive connection.
func newConnClients() []*http.Client {
	out := make([]*http.Client, conns)
	for i := range out {
		out[i] = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// doJSON sends one request and decodes a JSON answer; any status but want
// is a failed request.
func doJSON(c *http.Client, method, url string, body []byte, hdr map[string]string, want int, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// checkOne posts one pool trace to /v1/check and pins the report.
func checkOne(c *http.Client, url string, in *input) (int64, error) {
	u := url + "/v1/check"
	if in.hbrace {
		u += "?analyses=atomicity,hbrace"
	}
	var rep wireReport
	if err := doJSON(c, http.MethodPost, u, in.data, nil, http.StatusOK, &rep); err != nil {
		return 0, err
	}
	return rep.Events, checkReport("/v1/check", rep, in.ref, in.race)
}

// bootTimed boots a topology setupReps times and returns the last boot
// running. Each boot is timed from the first spawn until every daemon
// answers /healthz and a priming check through the front URL is answered.
func bootTimed(e *env, boot func() ([]*daemon, error), prime func(ds []*daemon) error) ([]*daemon, []float64, error) {
	var setups []float64
	for i := 0; i < e.scale.setupReps; i++ {
		start := time.Now()
		ds, err := boot()
		if err == nil {
			for _, d := range ds {
				if err = waitHealthy(d.url, 30*time.Second); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = prime(ds)
		}
		if err != nil {
			stopAll(ds)
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < e.scale.setupReps-1 {
			stopAll(ds)
		} else {
			return ds, setups, nil
		}
	}
	return nil, nil, fmt.Errorf("no set-up repetitions")
}

// stopAll stops daemons front to back (a router before its backends).
func stopAll(ds []*daemon) {
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i] != nil {
			ds[i].stop()
		}
	}
}

// peakRSSAll sums the daemons' peak resident sets.
func peakRSSAll(ds []*daemon) (float64, error) {
	sum := 0.0
	for _, d := range ds {
		v, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// picks returns n seeded picks from a pool of size k: back-to-back
// shuffles of the whole pool, so that every stretch of k arrivals asks for
// each trace once and the request mix does not drift with the seed.
func picks(seed int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

func runServe(e *env, res *result) error {
	sc := e.scale
	pool, err := renderAll(makePool(e.seed, sc.serveSizes[:], sc.servePool[:], 0.2, 0.25))
	if err != nil {
		return err
	}
	if err := pinInputs(e, res, pool); err != nil {
		return err
	}
	if err := references(e, res.Workload, pool); err != nil {
		return err
	}
	ds, setups, err := bootTimed(e,
		func() ([]*daemon, error) {
			d, err := startDaemon(e.daemon)
			return []*daemon{d}, err
		},
		func(ds []*daemon) error {
			_, err := checkOne(control, ds[0].url, pool[0])
			return err
		})
	if err != nil {
		return err
	}
	defer stopAll(ds)
	url := ds[0].url
	box := probeMs(5)
	clients := newConnClients()
	defer closeClients(clients)

	// load runs one open-loop phase at rate for d, seeded by salt.
	load := func(salt int64, rate float64, d time.Duration, tr *tracer) loadResult {
		sched := poissonSchedule(e.seed*7919+salt, rate, d)
		pick := picks(e.seed*7919+salt+1, len(sched), len(pool))
		return openLoop(sched, conns, nil, func(c, i int, _ time.Time) (time.Time, error) {
			start := time.Now()
			in := pool[pick[i]]
			n, err := checkOne(clients[c], url, in)
			done := time.Now()
			tr.root("http.check", start, done, map[string]any{"events": n, "hbrace": in.hbrace, "bytes": len(in.data)})
			return done, err
		})
	}
	loD, hiD := e.phase(0.3), e.phase(0.15)
	lo := load(1, sc.loRPS, loD, nil)
	res.step("lo", len(lo.samples), loD)
	hi := load(2, sc.hiRPS, hiD, nil)
	res.step("hi", len(hi.samples), hiD)
	for _, r := range []loadResult{lo, hi} {
		if r.wrong != nil {
			return r.wrong
		}
		res.count(r)
	}
	if lo.debt > 0 {
		return fmt.Errorf("run void: %d arrivals found the queue full at the lo rate (%.0f/s); the box stalled", lo.debt, sc.loRPS)
	}

	// Closed loop: both connections back to back. Its latencies are
	// service times under the same two-way concurrency and, unlike the
	// fixed rates', do not grow with queueing when the box slows down.
	closedD := e.phase(0.35)
	order := picks(e.seed*7919+3, 1<<16, len(pool))
	var lat [conns][]float64
	work, elapsed, err := closedLoop(closedD, conns, func(c, k int) (int64, error) {
		start := time.Now()
		n, err := checkOne(clients[c], url, pool[order[(k*conns+c)%len(order)]])
		lat[c] = append(lat[c], float64(time.Since(start))/1e6)
		return n, err
	})
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	closedMs := append(lat[0], lat[1]...)
	res.step("closed loop", len(closedMs), elapsed)
	res.Attempted += len(closedMs)

	// Search upward from hi: grow by 25% until a probe fails, then bisect
	// (geometrically) toward 5% resolution, within the probe budget.
	probeD := e.phase(0.2 / float64(max(sc.probes, 1)))
	okRate, failRate := sc.hiRPS, math.Inf(1)
	if !passes(hi, hiD, sc.p99LimitMs) {
		okRate, failRate = sc.loRPS, sc.hiRPS
	}
	// A probe above capacity gives arrivals up by design: only its errors
	// count as failures.
	for p := 0; p < sc.probes; p++ {
		rate := okRate * 1.25
		if !math.IsInf(failRate, 1) {
			if failRate/okRate <= 1.05 {
				break
			}
			rate = math.Sqrt(okRate * failRate)
		}
		r := load(int64(10+p), rate, probeD, nil)
		if r.wrong != nil {
			return r.wrong
		}
		res.count(loadResult{arrivals: r.arrivals, failed: r.failed, err: r.err})
		res.step(fmt.Sprintf("probe %.0f/s", rate), len(r.samples), probeD)
		if passes(r, probeD, sc.p99LimitMs) {
			okRate = rate
		} else {
			failRate = rate
		}
	}

	box = append(box, probeMs(5)...)
	rss, err := peakRSSAll(ds)
	if err != nil {
		return err
	}
	loMs, hiMs := lo.latencies(), hi.latencies()
	res.put("throughput_mev_s", single(float64(work)/elapsed.Seconds()/1e6, "Mevents/s", "higher", len(closedMs)))
	res.put("p50_ms", single(median(closedMs), "ms", "lower", len(closedMs)))
	res.put("p90_ms", single(quantile(closedMs, 0.9), "ms", "lower", len(closedMs)))
	res.put("peak_rss_mib", single(rss, "MiB", "lower", len(ds)))
	res.put("setup_s", timing(setups, "s", "lower"))
	res.put("box.probe_ms", timing(box, "ms", "lower"))
	res.put("p50_ms.lo", single(median(loMs), "ms", "lower", len(loMs)))
	res.put("p99_ms.lo", single(quantile(loMs, 0.99), "ms", "lower", len(loMs)))
	res.put("p50_ms.hi", single(median(hiMs), "ms", "lower", len(hiMs)))
	res.put("p99_ms.hi", single(quantile(hiMs, 0.99), "ms", "lower", len(hiMs)))
	res.put("max_ok_rps", single(okRate, "req/s", "higher", sc.probes))

	if e.tr == nil {
		return nil
	}
	mark := e.tr.mark()
	before, err := scrapeProm(url)
	if err != nil {
		return err
	}
	traced := load(1, sc.loRPS, loD/2, e.tr)
	if traced.wrong != nil {
		return traced.wrong
	}
	res.count(traced)
	after, err := scrapeProm(url)
	if err != nil {
		return err
	}
	res.step("traced lo", len(traced.samples), loD/2)
	engine, err := selectedEngine(url)
	if err != nil {
		return err
	}
	var raceIns [][]byte
	all := make([][]byte, len(pool))
	for i, in := range pool {
		all[i] = in.data
		if in.hbrace {
			raceIns = append(raceIns, in.data)
		}
	}
	l, err := runLedger(all, raceIns, engine, sc.ledgerReps, e.tr)
	if err != nil {
		return err
	}
	putLedger(res, l)
	wait := putServerDeltas(res, before, after, traced)
	res.layer("surface.other_ms", wait, "ms")
	res.layer("gen.max_lag_ms", maxLagMs(lo, hi, traced), "ms")
	res.layer("gen.debt", float64(lo.debt+hi.debt+traced.debt), "count")
	res.layer("trace_overhead_pct", overheadPct(median(traced.latencies()), median(loMs)), "%")
	res.SelfTimes = selfTimes(e.tr.since(mark))
	return nil
}

// passes is the search criterion: the p99 limit met, nothing given up or
// failed, and no growing backlog (the second half's median latency within
// 1.5x the first half's).
func passes(r loadResult, d time.Duration, limitMs float64) bool {
	first, second := r.halfMedians(d)
	return r.debt == 0 && r.failed == 0 && len(r.samples) > 0 &&
		quantile(r.latencies(), 0.99) <= limitMs && second <= 1.5*first
}

// stage is the Prometheus series of one server stage histogram.
func stage(prefix, name, suffix string) string {
	return fmt.Sprintf(`%s_stage_duration_seconds_%s{stage="%s"}`, prefix, suffix, name)
}

// putServerDeltas reports the backend stage time the traced pass added,
// and returns the mean client wait per request: client latency minus the
// server's parse and check time.
func putServerDeltas(res *result, before, after map[string]float64, r loadResult) float64 {
	delta := func(k string) float64 { return after[k] - before[k] }
	parse := delta(stage("aerodromed", "parse", "sum"))
	check := delta(stage("aerodromed", "check", "sum"))
	res.layer("server.parse_s", parse, "s")
	res.layer("server.check_s", check, "s")
	res.layer("server.rejected", delta("aerodromed_checks_rejected_total"), "count")
	wait := mean(r.latencies()) - (parse+check)*1000/float64(len(r.samples))
	res.layer("server.wait_ms", wait, "ms")
	return wait
}

func maxLagMs(rs ...loadResult) float64 {
	var m time.Duration
	for _, r := range rs {
		m = max(m, r.maxLag)
	}
	return float64(m) / 1e6
}
