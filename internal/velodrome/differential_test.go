package velodrome_test

// The cross-checker differential suite: for thousands of seeded random
// well-formed traces, every checker in the repository must agree on the
// verdict, and the documented detection-point orderings must hold:
//
//	index(velodrome-dfs) == index(velodrome-pk)       (same edge insertion)
//	index(basic)        == index(readopt)             (exact equivalence)
//	index(velodrome)    ≤ index(optimized) ≤ index(basic)
//
// Velodrome detects at cycle formation (the earliest sound point);
// Optimized's lazy live-clock consults can fire before Basic but never
// before the cycle exists. On small traces the verdict is additionally
// pinned to the reference oracle (internal/serial), which is itself
// cross-validated against exhaustive permutation search.

import (
	"fmt"
	"math/rand"
	"testing"

	"aerodrome/internal/core"
	"aerodrome/internal/serial"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
)

type result struct {
	name  string
	viol  bool
	index int64
}

func runAllCheckers(tr *trace.Trace) []result {
	engines := []core.Engine{
		core.NewBasic(),
		core.NewReadOpt(),
		core.NewOptimized(),
		velodrome.New(),
		velodrome.New(velodrome.WithStrategy("pearce-kelly")),
	}
	out := make([]result, len(engines))
	for i, eng := range engines {
		v, _ := core.Run(eng, tr.Cursor())
		out[i] = result{name: eng.Name(), viol: v != nil, index: -1}
		if v != nil {
			out[i].index = v.Index
		}
	}
	return out
}

func describe(tr *trace.Trace) string {
	s := ""
	for i, e := range tr.Events {
		s += fmt.Sprintf("%3d %s\n", i, e)
	}
	return s
}

func checkAgreement(t *testing.T, tr *trace.Trace, iter int, withOracle bool) {
	t.Helper()
	rs := runAllCheckers(tr)
	basic, readopt, opt, vdfs, vpk := rs[0], rs[1], rs[2], rs[3], rs[4]

	for _, r := range rs[1:] {
		if r.viol != basic.viol {
			t.Fatalf("iter %d: verdict mismatch: %s=%v %s=%v\n%s",
				iter, basic.name, basic.viol, r.name, r.viol, describe(tr))
		}
	}
	if withOracle {
		rep := serial.Check(tr)
		if rep.Serializable == basic.viol {
			t.Fatalf("iter %d: oracle says serializable=%v but %s violation=%v\n%s",
				iter, rep.Serializable, basic.name, basic.viol, describe(tr))
		}
	}
	if !basic.viol {
		return
	}
	if basic.index != readopt.index {
		t.Fatalf("iter %d: basic index %d != readopt index %d\n%s",
			iter, basic.index, readopt.index, describe(tr))
	}
	if vdfs.index != vpk.index {
		t.Fatalf("iter %d: velodrome dfs %d != pk %d\n%s",
			iter, vdfs.index, vpk.index, describe(tr))
	}
	if opt.index > basic.index {
		t.Fatalf("iter %d: optimized index %d later than basic %d\n%s",
			iter, opt.index, basic.index, describe(tr))
	}
	if vdfs.index > opt.index {
		t.Fatalf("iter %d: velodrome index %d later than optimized %d\n%s",
			iter, vdfs.index, opt.index, describe(tr))
	}
}

func TestDifferentialSmallTracesWithOracle(t *testing.T) {
	iters := 2500
	if testing.Short() {
		iters = 400
	}
	r := rand.New(rand.NewSource(2020))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 1 + r.Intn(4),
			Vars:    1 + r.Intn(3),
			Locks:   1 + r.Intn(2),
			Steps:   4 + r.Intn(40),
			TxnBias: r.Intn(8),
			NoFork:  r.Intn(3) == 0,
		})
		checkAgreement(t, tr, iter, true)
	}
}

func TestDifferentialMediumTraces(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	r := rand.New(rand.NewSource(777))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 2 + r.Intn(6),
			Vars:    1 + r.Intn(6),
			Locks:   1 + r.Intn(3),
			Steps:   100 + r.Intn(400),
			TxnBias: r.Intn(10),
		})
		// The O(n²) oracle is still fine at this size.
		checkAgreement(t, tr, iter, tr.Len() <= 300)
	}
}

func TestDifferentialContendedTraces(t *testing.T) {
	// Few variables and high transaction bias: nearly every access
	// conflicts, so violations form quickly and exercise the detection
	// paths rather than the accept paths.
	iters := 800
	if testing.Short() {
		iters = 100
	}
	r := rand.New(rand.NewSource(31337))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 2 + r.Intn(3),
			Vars:    1,
			Locks:   1,
			Steps:   6 + r.Intn(60),
			TxnBias: 6,
		})
		checkAgreement(t, tr, iter, tr.Len() <= 200)
	}
}

func TestDifferentialForkJoinHeavy(t *testing.T) {
	iters := 600
	if testing.Short() {
		iters = 80
	}
	r := rand.New(rand.NewSource(909))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 3 + r.Intn(5),
			Vars:    1 + r.Intn(2),
			Locks:   1,
			Steps:   30 + r.Intn(100),
			TxnBias: 4,
		})
		checkAgreement(t, tr, iter, tr.Len() <= 250)
	}
}
