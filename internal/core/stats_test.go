package core

// White-box tests for the engine introspection counters (EngineStats):
// the rates must track the representation dynamics the other white-box
// suites pin, and stay coherent (hits+misses cover every guarded check,
// ends split exactly into full/collected).

import (
	"fmt"
	"testing"

	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
	"aerodrome/internal/workload"
)

func TestStatsEpochAndEndCounters(t *testing.T) {
	cfg := workload.Config{
		Name: "stats-sharded", Threads: 8, Vars: 256, Locks: 8,
		Events: 20000, OpsPerTxn: 4, Pattern: workload.PatternSharded,
		TxnFraction: 0.5, Inject: workload.ViolationNone, Seed: 7,
	}
	for _, eng := range []Engine{NewOptimized(), NewOptimizedTree(), NewOptimizedHybrid(), NewOptimizedAuto()} {
		v, n := Run(eng, workload.New(cfg))
		if v != nil {
			t.Fatalf("%s: unexpected violation %v", eng.Name(), v)
		}
		s := eng.(StatsReporter).Stats()
		if s.EpochHits == 0 {
			t.Errorf("%s: no epoch fast-path hits over %d events", eng.Name(), n)
		}
		if s.EpochMisses == 0 {
			t.Errorf("%s: no epoch misses — every first absorb is a miss", eng.Name())
		}
		if rate := s.EpochHitRate(); rate <= 0 || rate >= 1 {
			t.Errorf("%s: hit rate %v outside (0,1)", eng.Name(), rate)
		}
		full, collected := eng.(interface{ EndStats() (int64, int64) }).EndStats()
		if s.EndsFull != full || s.EndsCollected != collected {
			t.Errorf("%s: Stats ends (%d,%d) disagree with EndStats (%d,%d)",
				eng.Name(), s.EndsFull, s.EndsCollected, full, collected)
		}
	}
}

func TestStatsSparsePromotions(t *testing.T) {
	// ȒR_x accumulates the *other-thread* components of each reader's
	// clock (the join zeroes the reader's own), so promotion needs readers
	// with wide clocks, not merely many readers. A lock convoy entangles
	// them: each acquire inherits every previous holder's component, so
	// late readers flush more components than the threshold into ȒR_x.
	readers := vc.PromoteThreshold + 8
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, readers)
	for i := range threads {
		threads[i] = b.Thread(fmt.Sprintf("t%d", i))
	}
	x := b.Var("x")
	l := b.Lock("l")
	for i := 1; i < readers; i++ {
		b.Fork(threads[0], threads[i])
	}
	b.Begin(threads[0])
	b.Write(threads[0], x)
	b.End(threads[0])
	for _, th := range threads {
		b.Acquire(th, l)
		b.Begin(th)
		b.Read(th, x)
		b.End(th)
		b.Release(th, l)
	}
	for i := 1; i < readers; i++ {
		b.Join(threads[0], threads[i])
	}
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if s := eng.Stats(); s.SparsePromotions == 0 {
		t.Fatalf("no sparse promotion counted with %d convoyed readers", readers)
	}
}

func TestStatsRepresentationTransitions(t *testing.T) {
	// The phase-shift fixture demotes hybrid thread clocks in the chain
	// burst and re-promotes them in the sharded steady state.
	eng := NewOptimizedHybrid()
	if v, _ := Run(eng, phaseShift().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	s := eng.Stats()
	if s.TreeDemotions == 0 {
		t.Fatalf("phase shift demoted nothing: %+v", s)
	}
	if s.TreeRepromotions == 0 {
		t.Fatalf("steady state re-promoted nothing: %+v", s)
	}
	if s.WidthPromotions != 0 {
		t.Fatalf("plain hybrid counted Auto width promotions: %+v", s)
	}

	// Auto with a small threshold crosses the width cutover and counts it.
	auto := newOptimizedAutoWidth(4)
	if v, _ := Run(auto, phaseShift().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if s := auto.Stats(); s.WidthPromotions == 0 {
		t.Fatalf("auto(threshold=4) on 8 threads counted no width promotions: %+v", s)
	}

	// Uniform engines report zero representation transitions.
	flat := NewOptimized()
	if v, _ := Run(flat, phaseShift().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if s := flat.Stats(); s.TreeDemotions != 0 || s.TreeRepromotions != 0 || s.WidthPromotions != 0 {
		t.Fatalf("flat engine reports representation transitions: %+v", s)
	}
}

func TestStatsAdd(t *testing.T) {
	a := EngineStats{EpochHits: 1, EpochMisses: 2, EndsFull: 3, EndsCollected: 4,
		SparsePromotions: 5, TreeDemotions: 6, TreeRepromotions: 7, WidthPromotions: 8,
		FlushesDeferred: 9, FlushesSettled: 10}
	var sum EngineStats
	sum.Add(a)
	sum.Add(a)
	if sum.EpochHits != 2 || sum.EpochMisses != 4 || sum.EndsFull != 6 ||
		sum.EndsCollected != 8 || sum.SparsePromotions != 10 ||
		sum.TreeDemotions != 12 || sum.TreeRepromotions != 14 || sum.WidthPromotions != 16 ||
		sum.FlushesDeferred != 18 || sum.FlushesSettled != 20 {
		t.Fatalf("Add drifted: %+v", sum)
	}
}
