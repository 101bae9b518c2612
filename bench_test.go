package aerodrome_test

// The benchmark harness: one benchmark family per paper table, one per
// worked figure, plus the engine and cycle-detection ablations that
// `experiments -run ablation` prints at full scale. Run with
//
//	go test -bench=. -benchmem
//
// Each Table benchmark iteration analyzes one freshly generated trace of
// benchEvents events with the row's workload shape; the reported metric of
// interest is ns/op between the velodrome and aerodrome sub-benchmarks of
// the same row (the paper's columns 8 and 9). cmd/experiments runs the same
// workloads at full scale with timeouts and prints the paper-style tables.

import (
	"testing"

	"aerodrome/internal/bench"
	"aerodrome/internal/core"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
	"aerodrome/internal/workload"
)

// benchEvents keeps a full `go test -bench=.` run tractable; the hub rows
// are quadratic for Velodrome, which is exactly the effect under study.
const benchEvents = 20_000

// benchVars bounds the variable pools at benchmark scale.
const benchVars = 2_000

func benchRow(b *testing.B, row workload.PaperRow) {
	b.Helper()
	engines := []bench.EngineSpec{bench.Velodrome(), bench.AeroDrome()}
	for _, spec := range engines {
		b.Run(spec.Label, func(b *testing.B) {
			var events int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := spec.New()
				v, n := core.Run(eng, workload.New(row.Config))
				events += n
				if (v != nil) == row.PaperAtomic {
					b.Fatalf("%s on %s: verdict flipped (violation=%v)",
						spec.Label, row.Config.Name, v != nil)
				}
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkTable1 regenerates the paper's Table 1 rows (atomicity
// specifications from DoubleChecker) at benchmark scale.
func BenchmarkTable1(b *testing.B) {
	for _, row := range workload.Table1(benchEvents, benchVars) {
		row := row
		b.Run(row.Config.Name, func(b *testing.B) { benchRow(b, row) })
	}
}

// BenchmarkTable2 regenerates the paper's Table 2 rows (naïve atomicity
// specifications).
func BenchmarkTable2(b *testing.B) {
	for _, row := range workload.Table2(benchEvents, benchVars) {
		row := row
		b.Run(row.Config.Name, func(b *testing.B) { benchRow(b, row) })
	}
}

// BenchmarkFigureTraces replays the paper's worked example traces ρ1–ρ4
// (Figures 1–4, whose AeroDrome runs are Figures 5–7) through Algorithm 1.
func BenchmarkFigureTraces(b *testing.B) {
	traces := map[string]*trace.Trace{
		"rho1": testutil.Rho1(),
		"rho2": testutil.Rho2(),
		"rho3": testutil.Rho3(),
		"rho4": testutil.Rho4(),
	}
	for name, tr := range traces {
		tr := tr
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := core.NewBasic()
				core.Run(eng, tr.Cursor())
			}
		})
	}
}

// BenchmarkAblationEngines compares the three AeroDrome variants of
// Algorithm 1/2/3 on a GC-friendly chain workload (the chain-gc row of
// `experiments -run ablation`): the payoff of the read-clock reduction and
// the lazy/update-set/GC optimizations.
func BenchmarkAblationEngines(b *testing.B) {
	cfg := workload.Config{
		Name: "ablation-chain", Threads: 8, Vars: benchVars, Locks: 8,
		Events: benchEvents, OpsPerTxn: 4, Pattern: workload.PatternChain,
		Inject: workload.ViolationNone, Seed: 42,
	}
	for _, algo := range []core.Algorithm{core.AlgoBasic, core.AlgoReadOpt, core.AlgoOptimized} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := core.New(algo)
				if v, _ := core.Run(eng, workload.New(cfg)); v != nil {
					b.Fatalf("unexpected violation: %v", v)
				}
			}
		})
	}
}

// BenchmarkAblationCycleDetection compares Velodrome's per-edge DFS against
// the Pearce–Kelly dynamic topological order (the hub-retention row of
// `experiments -run ablation`) on the retention workload where cycle
// checks dominate.
func BenchmarkAblationCycleDetection(b *testing.B) {
	cfg := workload.Config{
		Name: "ablation-hub", Threads: 8, Vars: benchVars, Locks: 8,
		Events: benchEvents, OpsPerTxn: 4, Pattern: workload.PatternHub,
		Inject: workload.ViolationNone, AbsorbEvery: 8, Seed: 42,
	}
	for _, strategy := range []string{"dfs", "pearce-kelly"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := velodrome.New(velodrome.WithStrategy(strategy))
				if v, _ := core.Run(eng, workload.New(cfg)); v != nil {
					b.Fatalf("unexpected violation: %v", v)
				}
			}
		})
	}
}

// BenchmarkAblationGC measures the effect of AeroDrome's transaction
// garbage collection (the hasIncomingEdge fast path) by comparing a
// workload of foreign-free transactions (all ends take the GC path) with a
// tainted chain (all ends take the full propagation path).
func BenchmarkAblationGC(b *testing.B) {
	private := workload.Config{
		Name: "gc-private", Threads: 8, Vars: benchVars, Locks: 1,
		Events: benchEvents, OpsPerTxn: 4, Pattern: workload.PatternSharded,
		TxnFraction: 1, Inject: workload.ViolationNone, Seed: 42,
	}
	tainted := workload.Config{
		Name: "gc-tainted", Threads: 8, Vars: benchVars, Locks: 1,
		Events: benchEvents, OpsPerTxn: 4, Pattern: workload.PatternChain,
		Inject: workload.ViolationNone, Seed: 42,
	}
	for _, cfg := range []workload.Config{private, tainted} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := core.NewOptimized()
				if v, _ := core.Run(eng, workload.New(cfg)); v != nil {
					b.Fatalf("unexpected violation: %v", v)
				}
			}
		})
	}
}

// BenchmarkThroughput reports steady-state events/sec for the evaluated
// AeroDrome configuration on the three body patterns.
func BenchmarkThroughput(b *testing.B) {
	for _, pattern := range []workload.Pattern{
		workload.PatternHub, workload.PatternChain, workload.PatternSharded,
	} {
		pattern := pattern
		b.Run(string(pattern), func(b *testing.B) {
			cfg := workload.Config{
				Name: "throughput", Threads: 8, Vars: benchVars, Locks: 8,
				Events: benchEvents, OpsPerTxn: 4, Pattern: pattern,
				TxnFraction: 0.5, Inject: workload.ViolationNone,
				AbsorbEvery: 8, Seed: 42,
			}
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				eng := core.NewOptimized()
				_, n := core.Run(eng, workload.New(cfg))
				events += n
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkThreadScaling measures the Optimized engine's per-event cost as
// the thread count grows (T ∈ {8, 64, 256}).
// This is the benchmark family behind BENCH_baseline.json/BENCH_after.json
// (cmd/experiments -run bench): per-event cost that is linear in thread
// count shows up as rows whose ns/event grow with T even though the trace
// shape is otherwise fixed.
func BenchmarkThreadScaling(b *testing.B) {
	spec := bench.AeroDromeVariant(core.AlgoOptimized)
	for _, cfg := range bench.ThreadScalingConfigs(benchEvents) {
		cfg := cfg
		b.Run(cfg.Name+"/"+spec.Label, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				eng := spec.New()
				v, n := core.Run(eng, workload.New(cfg))
				if v != nil {
					b.Fatalf("unexpected violation: %v", v)
				}
				events += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
