package bench

// Machine-readable benchmarking: the thread-scaling grid and the JSON
// report format of the BENCH_baseline.json / BENCH_after.json artifacts at
// the repository root. BENCH_after.json is `experiments -run bench` on the
// current engine: one Algorithm 3 row per grid workload. BENCH_baseline.json
// keeps two row sets: rows, the same grid measured on the seed engine, and
// gate_rows, the CI perf gate's pinned subset (see gate.go).

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/workload"
)

// BenchRow is one (workload, engine) measurement of the JSON report.
type BenchRow struct {
	Workload       string  `json:"workload"`
	Pattern        string  `json:"pattern"`
	Threads        int     `json:"threads"`
	Engine         string  `json:"engine"`
	Events         int64   `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	Runs           int     `json:"runs"`

	// Engine-introspection columns, populated when the engine implements
	// core.StatsReporter (zero-valued counters are omitted — a missing
	// column reads as "didn't happen", which is exactly what it means).
	// They make regressions in the internal rates visible next to the
	// ns/event they explain: a row whose ns_per_event grew and whose
	// epoch_hit_rate fell tells the whole story in two columns.
	EpochHitRate     float64 `json:"epoch_hit_rate,omitempty"`
	EpochHits        int64   `json:"epoch_hits,omitempty"`
	EpochMisses      int64   `json:"epoch_misses,omitempty"`
	SparsePromotions int64   `json:"sparse_promotions,omitempty"`
}

// BenchReport is the top-level JSON document.
type BenchReport struct {
	Label     string     `json:"label"`
	GoVersion string     `json:"go_version"`
	Rows      []BenchRow `json:"rows"`
	// GateRows is the pinned CI perf-regression baseline (see gate.go):
	// a small row subset re-measured by the bench-gate CI job and compared
	// against these numbers. Refreshed by `experiments -run bench
	// -update-gate`, deliberately separate from Rows so the historical
	// seed-engine measurements stay untouched.
	GateRows []BenchRow `json:"gate_rows,omitempty"`
}

// ThreadScalingConfigs returns the thread-heavy workload grid used by the
// BENCH JSON artifacts: the sharded and chain patterns at T ∈ {8, 64, 256}.
// Per-event engine cost that is linear in thread count shows up as rows
// whose ns/event grow with T even though the trace shape is otherwise
// fixed.
func ThreadScalingConfigs(events int64) []workload.Config {
	var out []workload.Config
	for _, pattern := range []workload.Pattern{workload.PatternSharded, workload.PatternChain} {
		for _, threads := range []int{8, 64, 256} {
			out = append(out, workload.Config{
				Name:    fmt.Sprintf("%s-t%d", pattern, threads),
				Threads: threads, Vars: 8192, Locks: 32,
				Events: events, OpsPerTxn: 4, Pattern: pattern,
				TxnFraction: 0.5, Inject: workload.ViolationNone, Seed: 42,
			})
		}
	}
	return out
}

// measure times run on cfg's workload under the engine label: one warmup
// run, then runs timed runs keeping the fastest, plus one instrumented run
// for allocation counts. run returns the events it processed.
func measure(cfg workload.Config, label string, runs int, run func() int64) BenchRow {
	if runs < 1 {
		runs = 1
	}
	row := BenchRow{
		Workload: cfg.Name,
		Pattern:  string(cfg.Pattern),
		Threads:  cfg.Threads,
		Engine:   label,
		Runs:     runs,
	}

	row.Events = run() // warmup

	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	row.NsPerEvent = float64(best.Nanoseconds()) / float64(row.Events)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	row.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(row.Events)
	row.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(row.Events)
	return row
}

// MeasureRow times spec on cfg under the measure protocol. The workload
// must be violation-free (a violation aborts the stream and would skew
// per-event numbers); MeasureRow panics if one fires.
func MeasureRow(spec EngineSpec, cfg workload.Config, runs int) BenchRow {
	var lastEng core.Engine
	row := measure(cfg, spec.Label, runs, func() int64 {
		eng := spec.New()
		v, n := core.Run(eng, workload.New(cfg))
		if v != nil {
			panic(fmt.Sprintf("bench: %s on %s: unexpected violation %v", spec.Label, cfg.Name, v))
		}
		lastEng = eng
		return n
	})

	// Counters are deterministic across runs (same seed, same trace), so
	// the instrumented run's engine speaks for all of them.
	if r, ok := lastEng.(core.StatsReporter); ok {
		s := r.Stats()
		row.EpochHitRate = s.EpochHitRate()
		row.EpochHits = s.EpochHits
		row.EpochMisses = s.EpochMisses
		row.SparsePromotions = s.SparsePromotions
	}
	return row
}

// MeasureReport measures every (cfg, engine) pair and assembles the report.
func MeasureReport(label string, engines []EngineSpec, cfgs []workload.Config, runs int) BenchReport {
	rep := BenchReport{Label: label, GoVersion: runtime.Version()}
	for _, cfg := range cfgs {
		for _, spec := range engines {
			rep.Rows = append(rep.Rows, MeasureRow(spec, cfg, runs))
		}
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
