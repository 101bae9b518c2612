package core

// White-box tests for the engine introspection counters (EngineStats):
// the rates must stay coherent (hits+misses cover every guarded check,
// ends split exactly into full/collected).

import (
	"fmt"
	"testing"

	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
	"aerodrome/internal/workload"
)

func TestStatsEpochAndEndCounters(t *testing.T) {
	// Epoch hits and misses count lookups of owned clocks only (a ⊥ W_x is
	// not consulted), so the trace must re-read clocks that exist: the
	// convoy's hot lock clock is acquired again and again.
	cfg := workload.Config{
		Name: "stats-convoy", Threads: 8, Vars: 256, Locks: 8,
		Events: 20000, OpsPerTxn: 4, Pattern: workload.PatternConvoy,
		TxnFraction: 0.5, Inject: workload.ViolationNone, Seed: 7,
	}
	tr := trace.Collect(workload.New(cfg))
	eng := NewOptimized()
	v, n := Run(eng, tr.Cursor())
	if v != nil {
		t.Fatalf("unexpected violation %v", v)
	}
	s := eng.Stats()
	if s.EpochHits == 0 {
		t.Errorf("no epoch fast-path hits over %d events", n)
	}
	if s.EpochMisses == 0 {
		t.Error("no epoch misses — every first absorb is a miss")
	}
	if rate := s.EpochHitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %v outside (0,1)", rate)
	}
	ends := int64(0)
	for _, e := range tr.Events {
		if e.Kind == trace.End {
			ends++
		}
	}
	if s.EndsFull+s.EndsCollected != ends {
		t.Errorf("ends %d full + %d collected, want the trace's %d ends", s.EndsFull, s.EndsCollected, ends)
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

func TestStatsAdd(t *testing.T) {
	a := EngineStats{EpochHits: 1, EpochMisses: 2, EndsFull: 3, EndsCollected: 4,
		SparsePromotions: 5, FlushesDeferred: 9, FlushesSettled: 10, JoinsSkipped: 11}
	var sum EngineStats
	sum.Add(a)
	sum.Add(a)
	if sum.EpochHits != 2 || sum.EpochMisses != 4 || sum.EndsFull != 6 ||
		sum.EndsCollected != 8 || sum.SparsePromotions != 10 ||
		sum.FlushesDeferred != 18 || sum.FlushesSettled != 20 || sum.JoinsSkipped != 22 {
		t.Fatalf("Add drifted: %+v", sum)
	}
}
