package aerodrome

import (
	"io"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/parcheck"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

// EngineStats is a snapshot of the introspection counters behind one
// checker's engine: the rates its optimizations stand on. All counters
// are zero for engines without the corresponding machinery (Velodrome
// and DoubleChecker report nothing; the flat and tree engines have no
// representation transitions to count).
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
	// TreeDemotions / TreeRepromotions count hybrid thread clocks
	// demoting tree→flat under join churn and re-promoting after the
	// hysteresis quiet streak; WidthPromotions counts Auto thread clocks
	// promoting flat→tree when the observed width crossed the threshold.
	TreeDemotions    int64 `json:"tree_demotions"`
	TreeRepromotions int64 `json:"tree_repromotions"`
	WidthPromotions  int64 `json:"width_promotions"`
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
	s.TreeDemotions += o.TreeDemotions
	s.TreeRepromotions += o.TreeRepromotions
	s.WidthPromotions += o.WidthPromotions
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
		TreeDemotions:    s.TreeDemotions - o.TreeDemotions,
		TreeRepromotions: s.TreeRepromotions - o.TreeRepromotions,
		WidthPromotions:  s.WidthPromotions - o.WidthPromotions,
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
		TreeDemotions:    s.TreeDemotions,
		TreeRepromotions: s.TreeRepromotions,
		WidthPromotions:  s.WidthPromotions,
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
	return engineStatsOf(m.eng)
}

// CheckStats reports where one pipelined check spent its time and what
// its engine did. ParseTime and CheckTime are per-stage wall times (the
// stages overlap on separate goroutines, so their sum can exceed the
// call's elapsed time); Engine holds the engine's introspection counters
// when HasEngineStats is true.
type CheckStats struct {
	Engine         EngineStats
	HasEngineStats bool
	ParseTime      time.Duration
	CheckTime      time.Duration
}

// CheckReaderPipelinedStats is CheckReaderPipelined returning per-stage
// timings and engine introspection counters alongside the report.
func CheckReaderPipelinedStats(r io.Reader, a Algorithm) (*Report, CheckStats, error) {
	return checkPipelinedStats(rapidio.NewReader(r), a)
}

// CheckBinaryReaderPipelinedStats is CheckBinaryReaderPipelined returning
// per-stage timings and engine introspection counters alongside the
// report.
func CheckBinaryReaderPipelinedStats(r io.Reader, a Algorithm) (*Report, CheckStats, error) {
	return checkPipelinedStats(rapidio.NewBinaryReader(r), a)
}

func checkPipelinedStats(src pipeline.BatchSource, a Algorithm) (*Report, CheckStats, error) {
	eng, err := newEngine(a)
	if err != nil {
		return nil, CheckStats{}, err
	}
	var stages pipeline.StageStats
	v, n, err := pipeline.Run(eng, src, pipeline.Config{Stats: &stages})
	if err != nil {
		return nil, CheckStats{}, err
	}
	cs := CheckStats{ParseTime: stages.ParseTime(), CheckTime: stages.CheckTime()}
	cs.Engine, cs.HasEngineStats = engineStatsOf(eng)
	rep := &Report{
		Serializable: v == nil,
		Violation:    fromInternal(v),
		Events:       n,
		Algorithm:    eng.Name(),
	}
	return rep, cs, nil
}

// ParallelStats describes what CheckSTDParallelIntra's partitioner did
// with a trace: how far the speculative sharding got and whether the
// verdict came from parallel shards or a sequential replay.
type ParallelStats struct {
	// Shards is the number of engines that actually ran; 1 means the
	// trace was checked sequentially.
	Shards int `json:"shards"`
	// Components is the number of independent components the scan found.
	Components int `json:"components"`
	// Relays is the number of relay (pure coordinator) threads.
	Relays int `json:"relays"`
	// Replicated counts relay–relay events copied into every shard.
	Replicated int64 `json:"replicated"`
	// Conflict reports that cross-shard clock flow forced a sequential
	// replay; ConflictIndex is the global index of the offending event
	// (-1 when Conflict is false).
	Conflict      bool  `json:"conflict"`
	ConflictIndex int64 `json:"conflict_index"`
	// Replayed reports that the verdict came from a sequential pass
	// (conflict, degenerate partition, or workers <= 1).
	Replayed bool `json:"replayed"`
}

func parallelStatsFromInternal(s parcheck.Stats) ParallelStats {
	return ParallelStats{
		Shards:        s.Shards,
		Components:    s.Components,
		Relays:        s.Relays,
		Replicated:    s.Replicated,
		Conflict:      s.Conflict,
		ConflictIndex: s.ConflictIndex,
		Replayed:      s.Replayed,
	}
}

// CheckSTDParallelIntraStats is CheckSTDParallelIntra returning the
// partitioner's statistics alongside the report. When the algorithm has
// no parallel partition path (or workers <= 1) the check runs
// sequentially and the stats report Shards=1, Replayed=true.
func CheckSTDParallelIntraStats(r io.Reader, a Algorithm, workers int) (*Report, ParallelStats, error) {
	algo, ok := coreAlgorithm(a)
	if !ok || workers <= 1 {
		rep, err := CheckSTD(r, a)
		return rep, ParallelStats{Shards: 1, ConflictIndex: -1, Replayed: true}, err
	}
	rd := rapidio.NewReader(r)
	var events []trace.Event
	for {
		e, more := rd.Next()
		if !more {
			break
		}
		events = append(events, e)
	}
	if err := rd.Err(); err != nil {
		return nil, ParallelStats{}, err
	}
	v, n, stats := parcheck.Check(events, algo, workers)
	rep := &Report{
		Serializable: v == nil,
		Violation:    fromInternal(v),
		Events:       n,
		Algorithm:    algo.String(),
	}
	return rep, parallelStatsFromInternal(stats), nil
}
