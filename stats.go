package aerodrome

import (
	"time"

	"aerodrome/internal/core"
)

// EngineStats is a snapshot of the introspection counters behind one
// checker's engine: the rates its optimizations stand on. All counters
// are zero for engines without the corresponding machinery (Velodrome
// and DoubleChecker report nothing).
type EngineStats struct {
	// EpochHits / EpochMisses count conflict checks resolved by the
	// FastTrack-style epoch fast path vs. falling through to the full
	// O(width) clock comparison.
	EpochHits   int64 `json:"epoch_hits"`
	EpochMisses int64 `json:"epoch_misses"`
	// EndsFull / EndsCollected count outermost transaction ends that took
	// the full propagation path vs. the garbage-collection fast path.
	EndsFull      int64 `json:"ends_full"`
	EndsCollected int64 `json:"ends_collected"`
	// SparsePromotions counts sparse read accumulators that outgrew the
	// association list and promoted to dense clocks.
	SparsePromotions int64 `json:"sparse_promotions"`
	// FlushesDeferred counts end-of-transaction clock flushes recorded as
	// pending snapshots instead of joins; FlushesSettled counts pending
	// snapshots later joined in because the full clock was consulted.
	FlushesDeferred int64 `json:"flushes_deferred"`
	FlushesSettled  int64 `json:"flushes_settled"`
	// JoinsSkipped counts clock joins and settles the engine skipped
	// because an O(1) test proved the target already held the source.
	JoinsSkipped int64 `json:"joins_skipped"`
}

// EpochHitRate returns EpochHits/(EpochHits+EpochMisses), or 0 with no
// guarded checks yet.
func (s EngineStats) EpochHitRate() float64 {
	total := s.EpochHits + s.EpochMisses
	if total == 0 {
		return 0
	}
	return float64(s.EpochHits) / float64(total)
}

// Add accumulates o into s (aggregation across checkers or sessions).
func (s *EngineStats) Add(o EngineStats) {
	s.EpochHits += o.EpochHits
	s.EpochMisses += o.EpochMisses
	s.EndsFull += o.EndsFull
	s.EndsCollected += o.EndsCollected
	s.SparsePromotions += o.SparsePromotions
	s.FlushesDeferred += o.FlushesDeferred
	s.FlushesSettled += o.FlushesSettled
	s.JoinsSkipped += o.JoinsSkipped
}

// Sub returns the counter-wise difference s − o: the activity between
// two snapshots of the same engine (all counters are monotonic).
func (s EngineStats) Sub(o EngineStats) EngineStats {
	return EngineStats{
		EpochHits:        s.EpochHits - o.EpochHits,
		EpochMisses:      s.EpochMisses - o.EpochMisses,
		EndsFull:         s.EndsFull - o.EndsFull,
		EndsCollected:    s.EndsCollected - o.EndsCollected,
		SparsePromotions: s.SparsePromotions - o.SparsePromotions,
		FlushesDeferred:  s.FlushesDeferred - o.FlushesDeferred,
		FlushesSettled:   s.FlushesSettled - o.FlushesSettled,
		JoinsSkipped:     s.JoinsSkipped - o.JoinsSkipped,
	}
}

func statsFromCore(s core.EngineStats) EngineStats {
	return EngineStats{
		EpochHits:        s.EpochHits,
		EpochMisses:      s.EpochMisses,
		EndsFull:         s.EndsFull,
		EndsCollected:    s.EndsCollected,
		SparsePromotions: s.SparsePromotions,
		FlushesDeferred:  s.FlushesDeferred,
		FlushesSettled:   s.FlushesSettled,
		JoinsSkipped:     s.JoinsSkipped,
	}
}

func engineStatsOf(eng core.Engine) (EngineStats, bool) {
	if r, ok := eng.(core.StatsReporter); ok {
		return statsFromCore(r.Stats()), true
	}
	return EngineStats{}, false
}

// Stats returns the checker's engine introspection counters. ok is false
// for engines without them (Velodrome, VelodromePK, DoubleChecker).
func (c *Checker) Stats() (EngineStats, bool) { return engineStatsOf(c.eng) }

// Stats returns the incremental checker's engine introspection counters.
// ok is false for engines without them.
func (c *IncrementalChecker) Stats() (EngineStats, bool) {
	s, ok := c.f.EngineStats()
	return statsFromCore(s), ok
}

// StageTimes returns how much wall time the incremental checker has spent
// parsing chunk bytes vs. running the engine over the parsed events.
func (c *IncrementalChecker) StageTimes() (parse, check time.Duration) {
	return c.stages.ParseTime(), c.stages.CheckTime()
}

// Stats returns the monitor's engine introspection counters, consistent
// with a momentary pause of the monitored program. ok is false for
// engines without them.
func (m *Monitor) Stats() (EngineStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return engineStatsOf(m.run.eng)
}

// CheckStats reports where one Check spent its time and what its engine
// did. ParseTime and CheckTime are per-stage wall times (the
// stages overlap on separate goroutines, so their sum can exceed the
// call's elapsed time); Engine holds the engine's introspection counters
// when HasEngineStats is true.
type CheckStats struct {
	Engine         EngineStats
	HasEngineStats bool
	ParseTime      time.Duration
	CheckTime      time.Duration
}
