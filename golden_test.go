package aerodrome_test

// Golden-trace regression corpus: small tracegen-produced STD logs checked
// in under testdata/golden, with expected verdict and first-violation
// snapshots, replayed end-to-end through internal/rapidio. Unlike the
// in-memory differential suites this pins the parser-to-engine path: a
// regression in STD tokenization, name interning or event mapping fails
// here even if every engine still agrees with every other.
//
// Regenerate the corpus and snapshots with:
//
//	go test -run TestGoldenTraces -update-golden .

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata/golden traces and expectation snapshots")

const goldenDir = "testdata/golden"

// goldenExpect is one trace's recorded outcome. Basic and ReadOpt agree on
// the exact violation event; the Optimized representations agree with each
// other and detect earlier or equal (lazy clocks never report later), so
// two snapshots cover all five engines.
type goldenExpect struct {
	Events         int64  `json:"events"`
	Violation      bool   `json:"violation"`
	BasicIndex     int64  `json:"basic_index,omitempty"`
	BasicCheck     string `json:"basic_check,omitempty"`
	OptimizedIndex int64  `json:"optimized_index,omitempty"`
	OptimizedCheck string `json:"optimized_check,omitempty"`
	// Happens-before race verdict for the same trace (the hbrace analysis,
	// PR 10). All race fields are additive and omitempty so the snapshot
	// format stays backward-compatible.
	Race       bool   `json:"race,omitempty"`
	RaceIndex  int64  `json:"race_index,omitempty"`
	RaceCheck  string `json:"race_check,omitempty"`
	RaceEvents int64  `json:"race_events,omitempty"`
}

func goldenConfigs() []workload.Config {
	var out []workload.Config
	for _, p := range []workload.Pattern{
		workload.PatternSharded, workload.PatternChain, workload.PatternHub,
		workload.PatternPhase, workload.PatternProducerConsumer,
		workload.PatternBarrier, workload.PatternConvoy, workload.PatternThrash,
	} {
		for _, inj := range []workload.Violation{
			workload.ViolationNone, workload.ViolationCross,
			workload.ViolationDelayed, workload.ViolationLock,
		} {
			out = append(out, workload.Config{
				Name: fmt.Sprintf("%s-%s", p, inj), Threads: 6, Vars: 64,
				Locks: 4, Events: 500, OpsPerTxn: 3, Pattern: p,
				Inject: inj, InjectAt: 0.7, TxnFraction: 0.5,
				AbsorbEvery: 4, Seed: 20260725,
			})
		}
	}
	return out
}

// basicClass lists the engines that share Basic's detection point. The
// corpus also replays core.AlgoOptimized, whose lazy detection point is
// recorded separately.
var basicClass = []core.Algorithm{core.AlgoBasic, core.AlgoReadOpt}

// replaySTDPipelined replays one golden trace through the public pipelined
// checker, Check: the corpus pins the concurrent ingestion path to the same
// snapshots as the sequential one, so a pipeline regression (reordering,
// dropped batch, off-by-one latch) fails against recorded history even if
// both paths drift together relative to the snapshot.
func replaySTDPipelined(t *testing.T, path string) (*aerodrome.Report, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, _, err := aerodrome.Check(f, aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatalf("%s: pipelined replay: %v", path, err)
	}
	return rep, rep.Events
}

// replayRaceSTD replays one golden trace through the public dual-analysis
// checker and returns the hbrace entry — the same path aerodromed uses, so
// the snapshot pins parser-to-detector history end to end.
func replayRaceSTD(t *testing.T, path string) aerodrome.AnalysisReport {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := aerodrome.CheckSTD(f, aerodrome.Options{Algorithm: aerodrome.Optimized,
		Analyses: []aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace}})
	if err != nil {
		t.Fatalf("%s: dual-analysis replay: %v", path, err)
	}
	for _, ar := range rep.Analyses {
		if ar.Analysis == string(aerodrome.AnalysisHBRace) {
			return ar
		}
	}
	t.Fatalf("%s: no hbrace entry", path)
	return aerodrome.AnalysisReport{}
}

func replaySTD(t *testing.T, path string, algo core.Algorithm) (*core.Violation, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := rapidio.NewReader(f)
	v, n := core.Run(core.New(algo), rd)
	if err := rd.Err(); err != nil {
		t.Fatalf("%s: parse error: %v", path, err)
	}
	return v, n
}

// sameViolation reports whether two engines' outcomes agree on verdict and,
// when violating, on the exact event and check.
func sameViolation(a, b *core.Violation) bool {
	if (a != nil) != (b != nil) {
		return false
	}
	return a == nil || (a.Index == b.Index && a.Check == b.Check)
}

func regenerateGolden(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	expects := map[string]goldenExpect{}
	for _, cfg := range goldenConfigs() {
		path := filepath.Join(goldenDir, cfg.Name+".std")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rapidio.WriteSource(f, workload.New(cfg)); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Validate the class assumption (ReadOpt pinned to Basic's exact
		// violation event) at generation time, so a change that breaks it
		// is diagnosed here rather than by the freshly written snapshots
		// failing on the next plain test run.
		vBasic, n := replaySTD(t, path, basicClass[0])
		for _, algo := range basicClass[1:] {
			v, _ := replaySTD(t, path, algo)
			if !sameViolation(vBasic, v) {
				t.Fatalf("%s: %v disagrees with %v at generation time (%v vs %v)",
					cfg.Name, algo, basicClass[0], v, vBasic)
			}
		}
		vOpt, _ := replaySTD(t, path, core.AlgoOptimized)
		if (vBasic != nil) != (vOpt != nil) {
			t.Fatalf("%s: basic and optimized disagree at generation time", cfg.Name)
		}
		e := goldenExpect{Events: n, Violation: vBasic != nil}
		if vBasic != nil {
			e.BasicIndex, e.BasicCheck = vBasic.Index, vBasic.Check.String()
			e.OptimizedIndex, e.OptimizedCheck = vOpt.Index, vOpt.Check.String()
		}
		hb := replayRaceSTD(t, path)
		e.Race, e.RaceEvents = !hb.Clean, hb.Events
		if !hb.Clean {
			e.RaceIndex, e.RaceCheck = hb.Violation.EventIndex, hb.Violation.Check
		}
		expects[cfg.Name] = e
	}
	out, err := json.MarshalIndent(expects, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "expect.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden corpus regenerated: %d traces", len(expects))
}

func TestGoldenTraces(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
		return
	}
	raw, err := os.ReadFile(filepath.Join(goldenDir, "expect.json"))
	if err != nil {
		t.Fatalf("golden snapshots missing (%v); run: go test -run TestGoldenTraces -update-golden .", err)
	}
	var expects map[string]goldenExpect
	if err := json.Unmarshal(raw, &expects); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			want, ok := expects[cfg.Name]
			if !ok {
				t.Fatalf("no snapshot for %s; regenerate the corpus", cfg.Name)
			}
			path := filepath.Join(goldenDir, cfg.Name+".std")
			for _, algo := range basicClass {
				v, n := replaySTD(t, path, algo)
				if (v != nil) != want.Violation {
					t.Fatalf("%v: verdict violation=%v, want %v", algo, v != nil, want.Violation)
				}
				if want.Violation && (v.Index != want.BasicIndex || v.Check.String() != want.BasicCheck) {
					t.Fatalf("%v: violation (index %d, %s), want (index %d, %s)",
						algo, v.Index, v.Check, want.BasicIndex, want.BasicCheck)
				}
				if !want.Violation && n != want.Events {
					t.Fatalf("%v: processed %d events, want %d", algo, n, want.Events)
				}
			}
			v, n := replaySTD(t, path, core.AlgoOptimized)
			if (v != nil) != want.Violation {
				t.Fatalf("optimized: verdict violation=%v, want %v", v != nil, want.Violation)
			}
			if want.Violation && (v.Index != want.OptimizedIndex || v.Check.String() != want.OptimizedCheck) {
				t.Fatalf("optimized: violation (index %d, %s), want (index %d, %s)",
					v.Index, v.Check, want.OptimizedIndex, want.OptimizedCheck)
			}
			if !want.Violation && n != want.Events {
				t.Fatalf("optimized: processed %d events, want %d", n, want.Events)
			}
			hb := replayRaceSTD(t, path)
			if !hb.Clean != want.Race {
				t.Fatalf("hbrace: verdict race=%v, want %v", !hb.Clean, want.Race)
			}
			if hb.Events != want.RaceEvents {
				t.Fatalf("hbrace: consumed %d events, want %d", hb.Events, want.RaceEvents)
			}
			if want.Race && (hb.Violation.EventIndex != want.RaceIndex || hb.Violation.Check != want.RaceCheck) {
				t.Fatalf("hbrace: violation (index %d, %s), want (index %d, %s)",
					hb.Violation.EventIndex, hb.Violation.Check, want.RaceIndex, want.RaceCheck)
			}
			rep, n := replaySTDPipelined(t, path)
			if rep.Serializable == want.Violation {
				t.Fatalf("pipelined: verdict violation=%v, want %v", !rep.Serializable, want.Violation)
			}
			if want.Violation && (rep.Violation.EventIndex != want.OptimizedIndex ||
				rep.Violation.Check != want.OptimizedCheck) {
				t.Fatalf("pipelined: violation (index %d, %s), want (index %d, %s)",
					rep.Violation.EventIndex, rep.Violation.Check, want.OptimizedIndex, want.OptimizedCheck)
			}
			if !want.Violation && n != want.Events {
				t.Fatalf("pipelined: processed %d events, want %d", n, want.Events)
			}
		})
	}
}
