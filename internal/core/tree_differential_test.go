package core

// Differential tests between the flat-clock, tree-clock and hybrid
// instantiations of the Optimized engine: the clock representation is
// required to be semantically invisible — identical verdicts, identical
// violation indices, identical check kinds, and identical GC-path
// decisions — on the paper's worked traces, on randomized well-formed
// traces (including the lock-heavy and nested-critical-section shapes
// that defeat tree-clock pruning), and on the benchmark workload
// generator's patterns.

import (
	"fmt"
	"math/rand"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

// repEngine is one representation under differential test: a constructor
// paired with an EndStats accessor (the concrete types differ per clock
// representation, so the stats come through a closure).
type repEngine struct {
	name  string
	eng   Engine
	stats func() (int64, int64)
}

func allRepEngines() []repEngine {
	flat := NewOptimized()
	tree := NewOptimizedTree()
	hyb := NewOptimizedHybrid()
	auto := NewOptimizedAuto()
	// A tiny-threshold Auto exercises the flat→tree cutover (and the
	// promoted clocks' subsequent demote/re-promote cycles) on every trace
	// wide enough to have a few threads, where the default threshold would
	// keep everything flat.
	autoNarrow := newOptimizedAutoWidth(2)
	return []repEngine{
		{"flat", flat, flat.EndStats},
		{"tree", tree, tree.EndStats},
		{"hybrid", hyb, hyb.EndStats},
		{"auto", auto, auto.EndStats},
		{"auto-w2", autoNarrow, autoNarrow.EndStats},
	}
}

// assertRepAgreement runs every clock representation over src-producing
// functions and requires identical observable behavior, with the flat
// engine as the reference.
func assertRepAgreement(t *testing.T, ctx string, src func() trace.Source) {
	t.Helper()
	reps := allRepEngines()
	ref := reps[0]
	vRef, nRef := Run(ref.eng, src())
	refFull, refColl := ref.stats()
	for _, rep := range reps[1:] {
		v, n := Run(rep.eng, src())
		if (vRef != nil) != (v != nil) {
			t.Fatalf("%s: verdict mismatch: %s violation=%v %s violation=%v",
				ctx, ref.name, vRef != nil, rep.name, v != nil)
		}
		if vRef != nil {
			if vRef.Index != v.Index || vRef.Check != v.Check {
				t.Fatalf("%s: violation mismatch: %s (index %d, %v) %s (index %d, %v)",
					ctx, ref.name, vRef.Index, vRef.Check, rep.name, v.Index, v.Check)
			}
		}
		if nRef != n {
			t.Fatalf("%s: processed %d (%s) vs %d (%s)", ctx, nRef, ref.name, n, rep.name)
		}
		full, coll := rep.stats()
		if refFull != full || refColl != coll {
			t.Fatalf("%s: GC decisions diverged: %s (%d,%d) %s (%d,%d)",
				ctx, ref.name, refFull, refColl, rep.name, full, coll)
		}
	}
}

func TestTreeClockAgreementOnPaperTraces(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"rho1", testutil.Rho1()},
		{"rho2", testutil.Rho2()},
		{"rho3", testutil.Rho3()},
		{"rho4", testutil.Rho4()},
	} {
		tr := tc.tr
		assertRepAgreement(t, tc.name, func() trace.Source { return tr.Cursor() })
	}
}

func TestTreeClockAgreementOnRandomTraces(t *testing.T) {
	iters := 1500
	if testing.Short() {
		iters = 200
	}
	r := rand.New(rand.NewSource(4242))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 1 + r.Intn(6),
			Vars:    1 + r.Intn(4),
			Locks:   1 + r.Intn(3),
			Steps:   10 + r.Intn(150),
			TxnBias: r.Intn(10),
			NoFork:  r.Intn(3) == 0,
		})
		assertRepAgreement(t, fmt.Sprintf("iter %d", iter), func() trace.Source { return tr.Cursor() })
	}
}

// TestTreeClockAgreementOnLockHeavyTraces drives the densely entangled
// shapes that defeat tree-clock pruning — lock-heavy schedules and nested
// critical sections — through the three-representation differential
// check: these are the traces that exercise the hybrid engine's bulk
// star-rebuild and flat-demotion paths.
func TestTreeClockAgreementOnLockHeavyTraces(t *testing.T) {
	iters := 600
	if testing.Short() {
		iters = 100
	}
	r := rand.New(rand.NewSource(171717))
	for iter := 0; iter < iters; iter++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads:      2 + r.Intn(8),
			Vars:         1 + r.Intn(5),
			Locks:        2 + r.Intn(5),
			Steps:        40 + r.Intn(250),
			TxnBias:      r.Intn(8),
			LockBias:     4 + r.Intn(10),
			MaxHeldLocks: 1 + r.Intn(3),
			NoFork:       r.Intn(2) == 0,
		})
		assertRepAgreement(t, fmt.Sprintf("lock-heavy iter %d", iter), func() trace.Source { return tr.Cursor() })
	}
}

func TestTreeClockAgreementOnWorkloads(t *testing.T) {
	patterns := []workload.Pattern{
		workload.PatternHub, workload.PatternChain, workload.PatternSharded,
		workload.PatternPhase,
	}
	injects := []workload.Violation{
		workload.ViolationNone, workload.ViolationCross,
		workload.ViolationDelayed, workload.ViolationLock,
	}
	for _, p := range patterns {
		for _, inj := range injects {
			for _, threads := range []int{2, 5, 9} {
				cfg := workload.Config{
					Name: string(p) + "-" + string(inj), Threads: threads,
					Vars: 64, Locks: 4, Events: 4000, OpsPerTxn: 3,
					Pattern: p, Inject: inj, InjectAt: 0.7,
					TxnFraction: 0.5, AbsorbEvery: 4, Seed: int64(threads),
				}
				assertRepAgreement(t, cfg.Name, func() trace.Source { return workload.New(cfg) })
			}
		}
	}
}

// TestEpochFastPathStats is a white-box check that the epoch fast path is
// not only sound but actually taken: repeated reads of the same variable
// under an unchanged write clock must not touch the reader's clock.
func TestEpochFastPathStats(t *testing.T) {
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x := b.Var("x")
	b.Write(t1, x) // unary write: flushes W_x
	b.Begin(t2)
	for i := 0; i < 50; i++ {
		b.Read(t2, x)
	}
	b.End(t2)
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	// After the first read absorbed W_x, every further read must hit the
	// epoch slot: same source clock, same version, same begin stamp.
	v := &eng.vars[x]
	if v.slot.thread != int32(t2) || v.slot.src != eng.vars[x].w {
		t.Fatalf("epoch slot not recorded: %+v", v.slot)
	}
	if got := eng.vars[x].w.Ver(); v.slot.srcVer != got {
		t.Fatalf("epoch slot version stale: slot %d clock %d", v.slot.srcVer, got)
	}
}

// TestConcreteMatchesGeneric pins the monomorphized flat and hybrid
// engines to the generic engine instantiated on the same representation:
// the source-level specializations must be behaviorally invisible.
func TestConcreteMatchesGeneric(t *testing.T) {
	type concGen struct {
		name string
		conc func() (Engine, func() (int64, int64))
		gen  func() (Engine, func() (int64, int64))
	}
	for _, pair := range []concGen{
		{"flat",
			func() (Engine, func() (int64, int64)) { e := NewOptimized(); return e, e.EndStats },
			func() (Engine, func() (int64, int64)) { e := newOptimizedGenericFlat(); return e, e.EndStats }},
		{"hybrid",
			func() (Engine, func() (int64, int64)) { e := NewOptimizedHybrid(); return e, e.EndStats },
			func() (Engine, func() (int64, int64)) { e := newOptimizedGenericHybrid(); return e, e.EndStats }},
	} {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(777177))
			for iter := 0; iter < 400; iter++ {
				tr := testutil.RandomTrace(r, testutil.GenOpts{
					Threads: 1 + r.Intn(5),
					Vars:    1 + r.Intn(4),
					Locks:   1 + r.Intn(2),
					Steps:   10 + r.Intn(120),
					TxnBias: r.Intn(10),
				})
				conc, concStats := pair.conc()
				gen, genStats := pair.gen()
				vc_, _ := Run(conc, tr.Cursor())
				vg, _ := Run(gen, tr.Cursor())
				if (vc_ != nil) != (vg != nil) {
					t.Fatalf("iter %d: concrete violation=%v generic=%v", iter, vc_ != nil, vg != nil)
				}
				if vc_ != nil && (vc_.Index != vg.Index || vc_.Check != vg.Check) {
					t.Fatalf("iter %d: concrete (%d,%v) generic (%d,%v)",
						iter, vc_.Index, vc_.Check, vg.Index, vg.Check)
				}
				cf, cc := concStats()
				gf, gc := genStats()
				if cf != gf || cc != gc {
					t.Fatalf("iter %d: EndStats concrete (%d,%d) generic (%d,%d)", iter, cf, cc, gf, gc)
				}
			}
		})
	}
}
