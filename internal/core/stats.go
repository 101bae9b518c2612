package core

// Engine introspection: counters for the internal rates the engines'
// optimizations stand on — epoch fast-path hits, sparse-accumulator
// promotions, hybrid representation transitions, GC'd transaction ends.
// The tuning work in ROADMAP items 1 and 5 needs these rates observable
// in production (/metrics), in the CLI (-stats) and on bench rows, not
// just derivable in a debugger.

// EngineStats is a snapshot of one engine's introspection counters.
// Engines are single-goroutine; snapshots are taken between events.
type EngineStats struct {
	// EpochHits / EpochMisses count checkAndGet invocations resolved by
	// the FastTrack-style epoch fast path vs. falling through to the full
	// O(width) Leq+Join.
	EpochHits   int64
	EpochMisses int64
	// EndsFull / EndsCollected count outermost end events that took the
	// full propagation path vs. the garbage-collection fast path.
	EndsFull      int64
	EndsCollected int64
	// SparsePromotions counts ȒR_x accumulators (vc.Sparse) that
	// outgrew the association list and promoted to dense clocks.
	SparsePromotions int64
	// TreeDemotions / TreeRepromotions count hybrid thread clocks
	// demoting tree→flat under join churn and re-promoting after the
	// hysteresis quiet streak; WidthPromotions counts Auto thread clocks
	// promoting flat→tree when the observed width crossed the threshold.
	// All three are zero for the uniform flat/tree engines.
	TreeDemotions    int64
	TreeRepromotions int64
	WidthPromotions  int64
	// FlushesDeferred counts end-event W_x/R_x flushes recorded as pending
	// snapshots instead of joins; FlushesSettled counts pending snapshots
	// later joined in because the full clock was consulted. Deferred minus
	// settled is the join work the deferral saved (or still holds).
	FlushesDeferred int64
	FlushesSettled  int64
}

// EpochHitRate returns EpochHits/(EpochHits+EpochMisses), or 0 with no
// guarded checks.
func (s EngineStats) EpochHitRate() float64 {
	total := s.EpochHits + s.EpochMisses
	if total == 0 {
		return 0
	}
	return float64(s.EpochHits) / float64(total)
}

// Add accumulates o into s (aggregation across engines or sessions).
func (s *EngineStats) Add(o EngineStats) {
	s.EpochHits += o.EpochHits
	s.EpochMisses += o.EpochMisses
	s.EndsFull += o.EndsFull
	s.EndsCollected += o.EndsCollected
	s.SparsePromotions += o.SparsePromotions
	s.TreeDemotions += o.TreeDemotions
	s.TreeRepromotions += o.TreeRepromotions
	s.WidthPromotions += o.WidthPromotions
	s.FlushesDeferred += o.FlushesDeferred
	s.FlushesSettled += o.FlushesSettled
}

// StatsReporter is implemented by engines that expose introspection
// counters (the Algorithm 3 family). Callers type-assert: Basic and
// ReadOpt have no fast paths to count.
type StatsReporter interface {
	Stats() EngineStats
}

// repStats is the hybrid-representation transition accounting, shared
// between an engine and every thread clock its constructor hands out
// (thread clocks outlive any single call site, so the counters cannot
// live on the engine struct alone).
type repStats struct {
	demotions       int64
	repromotions    int64
	widthPromotions int64
}
