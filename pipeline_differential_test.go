package aerodrome_test

// Concurrency-differential suite for the pipelined and parallel checkers:
// introducing goroutines into a codebase whose correctness story is
// sequential replay is only sound if the concurrent paths are
// observationally identical to the sequential one. Every trace in the
// golden corpus, the paper's ρ1–ρ4 traces and the byte-program fuzz seeds
// is checked by sequential CheckSTD, by pipelined Check on its STD text
// and on its ADB1 re-encoding, and by parallel CheckFilesParallel, and
// the reports must agree (verdict, violation index, check, thread, event
// count, algorithm). CI runs this under -race; the fuzz target extends the
// same comparison to mutated byte programs.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

// pipelineAlgos are the algorithms the differential suite replays. The
// pipeline is engine-agnostic; one engine per detection-point class keeps
// the suite fast while covering every dispatch shape.
var pipelineAlgos = []aerodrome.Algorithm{aerodrome.Basic, aerodrome.Optimized}

// requireSameReport fails unless the two reports are observationally
// identical.
func requireSameReport(t *testing.T, ctx string, seq, got *aerodrome.Report) {
	t.Helper()
	if seq.Serializable != got.Serializable {
		t.Fatalf("%s: verdict serializable=%v, want %v", ctx, got.Serializable, seq.Serializable)
	}
	if seq.Events != got.Events {
		t.Fatalf("%s: events %d, want %d", ctx, got.Events, seq.Events)
	}
	if seq.Algorithm != got.Algorithm {
		t.Fatalf("%s: algorithm %q, want %q", ctx, got.Algorithm, seq.Algorithm)
	}
	if (seq.Violation == nil) != (got.Violation == nil) {
		t.Fatalf("%s: violation %v, want %v", ctx, got.Violation, seq.Violation)
	}
	if seq.Violation != nil {
		a, b := seq.Violation, got.Violation
		if a.EventIndex != b.EventIndex || a.Check != b.Check || a.Thread != b.Thread {
			t.Fatalf("%s: violation (index %d, %s, t%d), want (index %d, %s, t%d)",
				ctx, b.EventIndex, b.Check, b.Thread, a.EventIndex, a.Check, a.Thread)
		}
	}
}

// assertPipelinedMatchesSequential checks one STD byte stream with
// CheckSTD, then with Check on the STD bytes and on their ADB1
// re-encoding, and with a small-batch pipeline.
func assertPipelinedMatchesSequential(t *testing.T, name string, std []byte, a aerodrome.Algorithm) {
	t.Helper()
	o := aerodrome.Options{Algorithm: a}
	seq, err := aerodrome.CheckSTD(bytes.NewReader(std), o)
	if err != nil {
		t.Fatalf("%s/%s: sequential: %v", name, a, err)
	}
	for _, in := range []struct {
		format string
		data   []byte
	}{{"std", std}, {"adb1", stdToBinary(t, std)}} {
		piped, _, err := aerodrome.Check(bytes.NewReader(in.data), o)
		if err != nil {
			t.Fatalf("%s/%s: Check %s: %v", name, a, in.format, err)
		}
		requireSameReport(t, fmt.Sprintf("%s/%s Check %s", name, a, in.format), seq, piped)
	}

	// Small batches force verdicts to land mid-batch and at boundaries.
	small, err := checkSTDPipelinedSmall(std, a)
	if err != nil {
		t.Fatalf("%s/%s: small-batch pipelined: %v", name, a, err)
	}
	requireSameReport(t, fmt.Sprintf("%s/%s small-batch", name, a), seq, small)
}

// stdToBinary re-encodes an STD log in the ADB1 binary format.
func stdToBinary(t *testing.T, std []byte) []byte {
	t.Helper()
	rd := rapidio.NewReader(bytes.NewReader(std))
	var bin bytes.Buffer
	bw := rapidio.NewBinaryWriter(&bin)
	for {
		ev, ok := rd.Next()
		if !ok {
			break
		}
		if err := bw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return bin.Bytes()
}

// TestCheckSniffEdgeCases pins Check's format sniff on the inputs where it
// could go wrong: whatever the first four bytes select — ADB1 binary for
// the exact magic, STD otherwise — Check returns that reader's report or
// error, including for an STD trace that happens to begin with "ADB1".
func TestCheckSniffEdgeCases(t *testing.T) {
	clean := stdToBinary(t, []byte("t0|begin|0\nt0|w(x)|0\nt0|end|0\nt1|r(x)|0\n"))
	for _, tc := range []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"one byte", "A"},
		{"two bytes", "AD"},
		{"three bytes", "ADB"},
		{"ADB then text", "ADBt0|begin|0\nADBt0|w(x)|0\nADBt0|end|0\n"},
		{"magic alone", "ADB1"},
		{"binary header only", string(clean[:16])},
		{"binary truncated record", string(clean[:len(clean)-3])},
		{"binary", string(clean)},
		{"STD beginning with ADB1", "ADB1|begin|0\nADB1|end|0\n"},
	} {
		var src interface {
			Next() (trace.Event, bool)
			Err() error
		} = rapidio.NewReader(strings.NewReader(tc.data))
		if rapidio.IsBinary([]byte(tc.data)) {
			src = rapidio.NewBinaryReader(strings.NewReader(tc.data))
		}
		eng := core.NewOptimized()
		v, n := core.Run(eng, src)
		wantErr := src.Err()

		rep, _, err := aerodrome.Check(strings.NewReader(tc.data), aerodrome.Options{})
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: Check error %v, want %v", tc.name, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Check error %v, want a report", tc.name, err)
		}
		if rep.Serializable != (v == nil) || rep.Events != n || rep.Algorithm != eng.Name() {
			t.Fatalf("%s: Check report %+v, want serializable=%v after %d events", tc.name, rep, v == nil, n)
		}
	}
}

// TestCheckReportsSourceError pins the read-error rule through Check: a
// source that fails after a whole record or line is reported as that
// failure (errors.Is finds it), not as a truncated record or a parse
// error on the partial line it left behind.
func TestCheckReportsSourceError(t *testing.T) {
	errLink := errors.New("link down")
	bin := stdToBinary(t, []byte("t0|begin|0\nt0|end|0\n"))
	for name, head := range map[string][]byte{
		"ADB1 after one record": bin[:16+8],
		"ADB1 inside a record":  bin[:16+8+3],
		"STD inside a line":     []byte("t0|begin|0\nt0|en"),
	} {
		_, _, err := aerodrome.Check(io.MultiReader(bytes.NewReader(head), iotest.ErrReader(errLink)), aerodrome.Options{})
		if !errors.Is(err, errLink) {
			t.Fatalf("%s: Check error %v, want %v", name, err, errLink)
		}
	}
}

// newInternalEngine maps the public algorithm names this suite uses onto
// the internal constructors (the public package does not expose pipeline
// tuning knobs, so the small-batch run goes through internal/pipeline).
func newInternalEngine(a aerodrome.Algorithm) core.Engine {
	switch a {
	case aerodrome.Basic:
		return core.NewBasic()
	default:
		return core.NewOptimized()
	}
}

// checkSTDPipelinedSmall is Check on STD with a deliberately tiny
// batch size and depth, driven through the internal pipeline to shake out
// boundary conditions the default configuration would hide.
func checkSTDPipelinedSmall(std []byte, a aerodrome.Algorithm) (*aerodrome.Report, error) {
	eng := newInternalEngine(a)
	v, n, err := pipeline.Run(eng, rapidio.NewReader(bytes.NewReader(std)), pipeline.Config{BatchSize: 3, Depth: 2})
	if err != nil {
		return nil, err
	}
	rep := &aerodrome.Report{Serializable: v == nil, Events: n, Algorithm: eng.Name()}
	if v != nil {
		rep.Violation = &aerodrome.Violation{
			EventIndex: v.Index, Thread: int(v.ActiveThread),
			Check: v.Check.String(), Algorithm: v.Algorithm,
		}
	}
	return rep, nil
}

func goldenPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.std"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(paths))
	}
	return paths
}

func TestPipelinedMatchesSequentialOnGoldenCorpus(t *testing.T) {
	for _, path := range goldenPaths(t) {
		std, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range pipelineAlgos {
			assertPipelinedMatchesSequential(t, filepath.Base(path), std, a)
		}
	}
}

func TestPipelinedMatchesSequentialOnPaperTraces(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		var std bytes.Buffer
		if err := rapidio.WriteTrace(&std, tc.tr); err != nil {
			t.Fatal(err)
		}
		for _, a := range pipelineAlgos {
			assertPipelinedMatchesSequential(t, tc.name, std.Bytes(), a)
		}
	}
}

// TestPipelinedMatchesSequentialOnFuzzSeeds replays the byte-program fuzz
// seed set (the corpus FuzzPipelineDifferential starts from) through the
// three-way comparison.
func TestPipelinedMatchesSequentialOnFuzzSeeds(t *testing.T) {
	for i, seed := range pipelineFuzzSeedTraces() {
		var std bytes.Buffer
		if err := rapidio.WriteTrace(&std, seed); err != nil {
			t.Fatal(err)
		}
		for _, a := range pipelineAlgos {
			assertPipelinedMatchesSequential(t, fmt.Sprintf("seed%d", i), std.Bytes(), a)
		}
	}
}

// TestParallelMatchesSequential checks the whole golden corpus through
// CheckFilesParallel and pins every file's report to its sequential
// counterpart, at several worker counts (1 = degenerate serial pool).
func TestParallelMatchesSequential(t *testing.T) {
	paths := goldenPaths(t)
	want := make([]*aerodrome.Report, len(paths))
	for i, path := range paths {
		std, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = aerodrome.CheckSTD(bytes.NewReader(std), aerodrome.Options{Algorithm: aerodrome.Optimized})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, 0} {
		reports, err := aerodrome.CheckFilesParallel(paths, aerodrome.Optimized, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(paths) {
			t.Fatalf("%d reports for %d paths", len(reports), len(paths))
		}
		for i, fr := range reports {
			if fr.Path != paths[i] {
				t.Fatalf("report %d out of order: %s, want %s", i, fr.Path, paths[i])
			}
			if fr.Err != nil {
				t.Fatalf("%s: %v", fr.Path, fr.Err)
			}
			requireSameReport(t, fmt.Sprintf("parallel(w=%d) %s", workers, filepath.Base(fr.Path)), want[i], fr.Report)
		}
	}
}

func TestCheckFilesParallelPerFileErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.std")
	if err := os.WriteFile(good, []byte("t0|begin|0\nt0|w(x)|0\nt0|end|0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.std")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.std")
	reports, err := aerodrome.CheckFilesParallel([]string{good, bad, missing}, aerodrome.Optimized, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Err != nil || reports[0].Report == nil || !reports[0].Report.Serializable {
		t.Fatalf("good file: %+v", reports[0])
	}
	if reports[1].Err == nil {
		t.Fatalf("parse error must surface per file: %+v", reports[1])
	}
	if reports[2].Err == nil {
		t.Fatalf("open error must surface per file: %+v", reports[2])
	}
	if _, err := aerodrome.CheckFilesParallel([]string{good}, "bogus", 1); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// pipelineFuzzSeedTraces mirrors the engine fuzz corpus: the paper traces,
// the injected-violation workloads and the phase-shift shape.
func pipelineFuzzSeedTraces() []*trace.Trace {
	seeds := []*trace.Trace{
		testutil.Rho1(), testutil.Rho2(), testutil.Rho3(), testutil.Rho4(),
		testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{Threads: 5, BurstRounds: 4, SteadyRounds: 12}),
		testutil.ProducerConsumerTrace(testutil.ProducerConsumerOpts{Producers: 2, Consumers: 2, Rounds: 40, Slots: 4}),
		testutil.BarrierPhasesTrace(testutil.BarrierOpts{Threads: 6, Phases: 8, OpsPerTxn: 2}),
		testutil.LockConvoyTrace(testutil.LockConvoyOpts{Threads: 6, Rounds: 40, Nested: true}),
		testutil.QuotaThrashTrace(testutil.QuotaThrashOpts{Threads: 5, Bursts: 20, TxnsPerBurst: 3}),
	}
	for _, inj := range []workload.Violation{
		workload.ViolationCross, workload.ViolationDelayed, workload.ViolationLock,
	} {
		cfg := workload.Config{
			Name: "pipe-seed-" + string(inj), Threads: 6, Vars: 48, Locks: 8,
			Events: 400, OpsPerTxn: 3, Pattern: workload.PatternChain,
			Inject: inj, InjectAt: 0.7, TxnFraction: 0.5, Seed: 11,
		}
		seeds = append(seeds, trace.Collect(workload.New(cfg)))
	}
	return seeds
}

// FuzzPipelineDifferential decodes fuzz bytes into a well-formed trace
// (via the byte-program VM), renders it as an STD log, and requires the
// pipelined checker — default and tiny-batch configurations — to agree
// with the sequential checker event for event.
//
// Run long with:
//
//	go test -fuzz=FuzzPipelineDifferential .
func FuzzPipelineDifferential(f *testing.F) {
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
		assertPipelinedMatchesSequential(t, "fuzz", std.Bytes(), aerodrome.Optimized)
	})
}
