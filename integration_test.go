package aerodrome_test

// End-to-end integration tests: generate workloads, round-trip them through
// the on-disk trace formats, and check them with every algorithm through
// the public API, asserting cross-checker agreement on files rather than
// in-memory streams.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

func generateToFile(t *testing.T, cfg workload.Config, dir string) string {
	t.Helper()
	path := filepath.Join(dir, cfg.Name+".std")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := rapidio.WriteSource(f, workload.New(cfg)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPipelineGenerateCheckAgree(t *testing.T) {
	dir := t.TempDir()
	configs := []workload.Config{
		{
			Name: "violating-hub", Threads: 6, Vars: 300, Locks: 4,
			Events: 8_000, Pattern: workload.PatternHub,
			Inject: workload.ViolationCross, InjectAt: 0.8, AbsorbEvery: 8, Seed: 3,
		},
		{
			Name: "clean-chain", Threads: 5, Vars: 300, Locks: 4,
			Events: 8_000, Pattern: workload.PatternChain,
			Inject: workload.ViolationNone, Seed: 4,
		},
		{
			Name: "delayed-sharded", Threads: 6, Vars: 300, Locks: 2,
			Events: 8_000, Pattern: workload.PatternSharded, TxnFraction: 0.3,
			Inject: workload.ViolationDelayed, InjectAt: 0.5, Seed: 5,
		},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			path := generateToFile(t, cfg, dir)
			wantViolation := cfg.Inject != workload.ViolationNone
			for _, algo := range aerodrome.Algorithms() {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := aerodrome.CheckSTD(f, aerodrome.Options{Algorithm: algo})
				f.Close()
				if err != nil {
					t.Fatalf("%s: %v", algo, err)
				}
				if rep.Serializable == wantViolation {
					t.Fatalf("%s on %s: serializable=%v, want violation=%v",
						algo, cfg.Name, rep.Serializable, wantViolation)
				}
			}
		})
	}
}

func TestPipelineBinarySTDEquivalence(t *testing.T) {
	// The binary and text serializations of the same workload must produce
	// identical verdicts and detection indices.
	cfg := workload.Config{
		Name: "fmt-equiv", Threads: 6, Vars: 200, Locks: 3,
		Events: 6_000, Pattern: workload.PatternChain,
		Inject: workload.ViolationLock, InjectAt: 0.7, Seed: 8,
	}
	var stdBuf, binBuf bytes.Buffer
	if _, err := rapidio.WriteSource(&stdBuf, workload.New(cfg)); err != nil {
		t.Fatal(err)
	}
	bw := rapidio.NewBinaryWriter(&binBuf)
	gen := workload.New(cfg)
	for {
		e, ok := gen.Next()
		if !ok {
			break
		}
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	stdEng := core.NewOptimized()
	vStd, nStd := core.Run(stdEng, rapidio.NewReader(&stdBuf))
	binEng := core.NewOptimized()
	vBin, nBin := core.Run(binEng, rapidio.NewBinaryReader(&binBuf))

	if (vStd == nil) != (vBin == nil) || nStd != nBin {
		t.Fatalf("format divergence: std=(%v,%d) bin=(%v,%d)", vStd, nStd, vBin, nBin)
	}
	if vStd != nil && vStd.Index != vBin.Index {
		t.Fatalf("violation index differs: %d vs %d", vStd.Index, vBin.Index)
	}
}

func TestPipelineStatsMatchTraceFile(t *testing.T) {
	cfg := workload.Config{
		Name: "stats", Threads: 4, Vars: 100, Locks: 2, Events: 5_000,
		Pattern: workload.PatternChain, Inject: workload.ViolationNone, Seed: 6,
	}
	dir := t.TempDir()
	path := generateToFile(t, cfg, dir)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile := trace.ComputeStats(rapidio.NewReader(f))
	fromGen := trace.ComputeStats(workload.New(cfg))
	// Reading interns variable names densely by first appearance, while the
	// generator's ID space may be sparse (IDs it never touched), so the Vars
	// column legitimately shrinks; everything else must match exactly.
	if fromFile.Vars > fromGen.Vars || fromFile.Vars == 0 {
		t.Fatalf("vars: file %d, gen %d", fromFile.Vars, fromGen.Vars)
	}
	fromFile.Vars = 0
	fromGen.Vars = 0
	if fromFile != fromGen {
		t.Fatalf("stats diverge:\nfile: %+v\ngen:  %+v", fromFile, fromGen)
	}
	if fromFile.Events == 0 || fromFile.Transactions == 0 {
		t.Fatalf("degenerate stats: %+v", fromFile)
	}
}

func TestPipelineDetectionIndicesOrdered(t *testing.T) {
	// On a violating file, the documented detection-point ordering must
	// hold across algorithms reading the same file.
	cfg := workload.Config{
		Name: "ordering", Threads: 6, Vars: 200, Locks: 3,
		Events: 6_000, Pattern: workload.PatternChain,
		Inject: workload.ViolationCross, InjectAt: 0.6, Seed: 9,
	}
	dir := t.TempDir()
	path := generateToFile(t, cfg, dir)

	index := func(algo aerodrome.Algorithm) int64 {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := aerodrome.CheckSTD(f, aerodrome.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation == nil {
			t.Fatalf("%s: expected violation", algo)
		}
		return rep.Violation.EventIndex
	}

	basic := index(aerodrome.Basic)
	readopt := index(aerodrome.ReadOpt)
	optimized := index(aerodrome.Optimized)
	velo := index(aerodrome.Velodrome)

	if basic != readopt {
		t.Fatalf("basic %d != readopt %d", basic, readopt)
	}
	if optimized > basic || velo > optimized {
		t.Fatalf("ordering broken: velo %d ≤ opt %d ≤ basic %d expected", velo, optimized, basic)
	}
}
