package aerodrome_test

// Lockdown suite for the multi-analysis surface: every trace in the golden
// corpus, the paper's ρ1–ρ4, the scenario shapes and the byte-program fuzz
// seeds is checked with the dual analysis set and pinned two ways. The
// hbrace verdict must match a naive happens-before oracle (full vector
// clocks, no epochs — internal/race.Naive) replaying the same events, and
// the atomicity verdict must be byte-identical — as JSON — to the
// single-analysis CheckSTD report, so adding a second analysis can never
// perturb the first. CI runs this under -race; FuzzRaceDifferential
// extends the oracle comparison to mutated byte programs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aerodrome"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
)

var dualSet = []aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace}

// naiveRaceVerdict replays the STD bytes through the naive HB oracle and
// returns its violation and processed-event count.
func naiveRaceVerdict(t *testing.T, std []byte) (*race.Violation, int64) {
	t.Helper()
	rd := rapidio.NewReader(bytes.NewReader(std))
	n := race.NewNaive()
	for {
		e, ok := rd.Next()
		if !ok {
			break
		}
		if n.Process(e) != nil {
			break
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("oracle parse: %v", err)
	}
	return n.Violation(), n.Processed()
}

// hbraceEntry extracts the hbrace AnalysisReport from a dual report.
func hbraceEntry(t *testing.T, ctx string, rep *aerodrome.Report) aerodrome.AnalysisReport {
	t.Helper()
	for _, ar := range rep.Analyses {
		if ar.Analysis == string(aerodrome.AnalysisHBRace) {
			return ar
		}
	}
	t.Fatalf("%s: no hbrace entry in %+v", ctx, rep.Analyses)
	return aerodrome.AnalysisReport{}
}

// requireOracleAgreement pins one hbrace verdict against the naive oracle:
// same race-or-not, and on a race the same event index, kind, variable and
// racing thread. (The reported other thread may legitimately differ when
// several prior accesses race the same event.)
func requireOracleAgreement(t *testing.T, ctx string, got aerodrome.AnalysisReport, ov *race.Violation, on int64) {
	t.Helper()
	if got.Clean != (ov == nil) {
		t.Fatalf("%s: hbrace clean=%v, oracle violation=%v", ctx, got.Clean, ov)
	}
	if got.Events != on {
		t.Fatalf("%s: hbrace consumed %d events, oracle %d", ctx, got.Events, on)
	}
	if ov == nil {
		return
	}
	v := got.Violation
	if v == nil || v.EventIndex != ov.Index || v.Check != ov.Check.String() ||
		v.Target == nil || *v.Target != int(ov.Var) || v.Thread != int(ov.Thread) {
		t.Fatalf("%s: hbrace violation %+v, oracle (idx %d, %s, x%d, t%d)",
			ctx, v, ov.Index, ov.Check, ov.Var, ov.Thread)
	}
}

// requireAtomicityByteIdentity marshals the single-analysis report and the
// dual report with its analyses stripped and requires identical JSON — the
// second analysis must not perturb the legacy wire format in any way,
// including field presence.
func requireAtomicityByteIdentity(t *testing.T, ctx string, single, dual *aerodrome.Report) {
	t.Helper()
	want, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	stripped := *dual
	stripped.Analyses = nil
	got, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: dual-analysis atomicity JSON diverged\n single: %s\n   dual: %s", ctx, want, got)
	}
}

// assertDualAnalysis checks one STD byte stream with the dual set through
// the sequential and pipelined checkers and the push path (fed a byte at
// a time and in 4 KiB chunks) and pins every guarantee the
// multi-analysis surface makes.
func assertDualAnalysis(t *testing.T, name string, std []byte) {
	t.Helper()
	single, err := aerodrome.CheckSTD(bytes.NewReader(std), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatalf("%s: single: %v", name, err)
	}
	dualOpts := aerodrome.Options{Algorithm: aerodrome.Optimized, Analyses: dualSet}
	dual, err := aerodrome.CheckSTD(bytes.NewReader(std), dualOpts)
	if err != nil {
		t.Fatalf("%s: dual: %v", name, err)
	}
	piped, _, err := aerodrome.Check(bytes.NewReader(std), dualOpts)
	if err != nil {
		t.Fatalf("%s: dual pipelined: %v", name, err)
	}

	// Atomicity must be untouched by the rider analysis, byte for byte.
	requireSameReport(t, name+" dual", single, dual)
	requireSameReport(t, name+" dual-pipelined", single, piped)
	requireAtomicityByteIdentity(t, name+" dual", single, dual)
	requireAtomicityByteIdentity(t, name+" dual-pipelined", single, piped)

	// Naming the default set must give literally the single-analysis report.
	def, err := aerodrome.CheckSTD(bytes.NewReader(std), aerodrome.Options{Algorithm: aerodrome.Optimized,
		Analyses: []aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity}})
	if err != nil {
		t.Fatalf("%s: default-set: %v", name, err)
	}
	if len(def.Analyses) != 0 {
		t.Fatalf("%s: default-set report carries analyses: %+v", name, def.Analyses)
	}
	requireAtomicityByteIdentity(t, name+" default-set", single, def)

	// The hbrace verdict must match the naive oracle, on every path.
	ov, on := naiveRaceVerdict(t, std)
	requireOracleAgreement(t, name+" dual", hbraceEntry(t, name, dual), ov, on)
	requireOracleAgreement(t, name+" dual-pipelined", hbraceEntry(t, name, piped), ov, on)

	for _, chunk := range []int{1, 4096} {
		ctx := fmt.Sprintf("%s dual-incremental/%d", name, chunk)
		pushed, err := checkIncremental(t, std, dualOpts, chunk)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		requireSameReport(t, ctx, single, pushed)
		requireAtomicityByteIdentity(t, ctx, single, pushed)
		requireOracleAgreement(t, ctx, hbraceEntry(t, ctx, pushed), ov, on)
	}
}

func TestRaceDifferentialOnGoldenCorpus(t *testing.T) {
	for _, path := range goldenPaths(t) {
		std, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertDualAnalysis(t, filepath.Base(path), std)
	}
}

func TestRaceDifferentialOnPaperAndShapeTraces(t *testing.T) {
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"rho1", testutil.Rho1()},
		{"rho2", testutil.Rho2()},
		{"rho3", testutil.Rho3()},
		{"rho4", testutil.Rho4()},
		{"phase-shift", testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
			Threads: 6, BurstRounds: 5, SteadyRounds: 25,
		})},
		{"prodcons", testutil.ProducerConsumerTrace(testutil.ProducerConsumerOpts{
			Producers: 3, Consumers: 2, Rounds: 50, Slots: 4,
		})},
		{"barrier", testutil.BarrierPhasesTrace(testutil.BarrierOpts{
			Threads: 6, Phases: 8, OpsPerTxn: 2,
		})},
		{"convoy", testutil.LockConvoyTrace(testutil.LockConvoyOpts{
			Threads: 6, Rounds: 40, Nested: true,
		})},
		{"thrash", testutil.QuotaThrashTrace(testutil.QuotaThrashOpts{
			Threads: 5, Bursts: 20, TxnsPerBurst: 3,
		})},
	}
	for _, tc := range traces {
		var std bytes.Buffer
		if err := rapidio.WriteTrace(&std, tc.tr); err != nil {
			t.Fatal(err)
		}
		assertDualAnalysis(t, tc.name, std.Bytes())
	}
}

func TestRaceDifferentialOnFuzzSeeds(t *testing.T) {
	for i, seed := range pipelineFuzzSeedTraces() {
		var std bytes.Buffer
		if err := rapidio.WriteTrace(&std, seed); err != nil {
			t.Fatal(err)
		}
		assertDualAnalysis(t, fmt.Sprintf("seed%d", i), std.Bytes())
	}
}

// FuzzRaceDifferential decodes fuzz bytes into a well-formed trace via the
// byte-program VM, renders it as an STD log, and requires the dual-analysis
// checker's hbrace verdict to match the naive happens-before oracle while
// its atomicity verdict stays byte-identical to the single-analysis path.
//
// Run long with:
//
//	go test -fuzz=FuzzRaceDifferential .
func FuzzRaceDifferential(f *testing.F) {
	for _, tr := range pipelineFuzzSeedTraces() {
		if enc := testutil.EncodeTrace(tr); enc != nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := testutil.TraceFromBytes(data)
		var std bytes.Buffer
		if err := rapidio.WriteTrace(&std, tr); err != nil {
			t.Fatal(err)
		}
		assertDualAnalysis(t, "fuzz", std.Bytes())
	})
}
