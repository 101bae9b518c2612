// Command experiments regenerates the paper's evaluation: Table 1 (real
// atomicity specifications), Table 2 (naïve specifications), the worked
// Figures 5–7, and ablations of the AeroDrome variants and of Velodrome's
// cycle detection. Output is Markdown with the paper's own numbers inlined
// for comparison.
//
// Usage:
//
//	experiments -run tables -events 2000000 -timeout 30s
//	experiments -run figures
//	experiments -run ablation -events 300000
//	experiments -run doublechecker -events 300000
//	experiments -run bench -json BENCH_after.json
//	experiments -run bench -gate -baseline BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aerodrome/internal/bench"
	"aerodrome/internal/core"
	"aerodrome/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("run", "tables", "what to run: tables, table1, table2, figures, ablation, doublechecker, all (paper reproduction) or bench (the engine thread-scaling grid as JSON, or the CI perf gate with -gate)")
	events := fs.Int64("events", 2_000_000, "event budget per benchmark row (the paper's traces go up to 2.8B)")
	maxVars := fs.Int("vars", 20_000, "variable-pool cap per row")
	timeout := fs.Duration("timeout", 30*time.Second, "per-engine timeout per row (the paper used 10h at full scale)")
	verbose := fs.Bool("v", false, "print per-engine progress while running")
	label := fs.String("label", "after", "label recorded in the -run bench JSON report")
	jsonOut := fs.String("json", "", "write the -run bench report to this file (default stdout)")
	runs := fs.Int("runs", 5, "timed runs per -run bench row (fastest wins)")
	gate := fs.Bool("gate", false, "with -run bench: run the CI perf-regression gate (pinned row subset vs the baseline's gate_rows; exit 1 on breach) instead of the full grid")
	updateGate := fs.Bool("update-gate", false, "with -run bench: re-measure the gate rows and rewrite them into the baseline file")
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline report for -gate / -update-gate")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	o := bench.Options{
		MaxEvents: *events,
		MaxVars:   *maxVars,
		Timeout:   *timeout,
	}
	if *verbose {
		o.Progress = stderr
	}

	switch *what {
	case "figures":
		figures(stdout)
	case "table1":
		table(stdout, 1, o)
	case "table2":
		table(stdout, 2, o)
	case "tables":
		table(stdout, 1, o)
		fmt.Fprintln(stdout)
		table(stdout, 2, o)
	case "ablation":
		ablation(stdout, o)
	case "bench":
		switch {
		case *gate:
			if err := bench.RunGate(stdout, *baseline); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		case *updateGate:
			if err := bench.UpdateGateBaseline(stdout, *baseline); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		default:
			if err := benchJSON(stdout, stderr, *label, *jsonOut, *events, *runs); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		}
	case "doublechecker":
		doubleCheckerRun(stdout, o)
	case "all":
		figures(stdout)
		fmt.Fprintln(stdout)
		table(stdout, 1, o)
		fmt.Fprintln(stdout)
		table(stdout, 2, o)
		fmt.Fprintln(stdout)
		ablation(stdout, o)
		fmt.Fprintln(stdout)
		doubleCheckerRun(stdout, o)
	default:
		fmt.Fprintf(stderr, "experiments: unknown -run %q\n", *what)
		return 2
	}
	return 0
}

// benchJSON runs the thread-scaling grid on the Algorithm 3 engine and
// emits the machine-readable report BENCH_after.json holds. The default
// event budget of the other modes is far more than these timed rows need,
// so the grid caps at 200K events per row unless -events lowers it.
func benchJSON(stdout, stderr io.Writer, label, path string, events int64, runs int) error {
	if events > 200_000 {
		events = 200_000
	}
	engines := []bench.EngineSpec{bench.AeroDromeVariant(core.AlgoOptimized)}
	cfgs := bench.ThreadScalingConfigs(events)
	fmt.Fprintf(stderr, "measuring %d rows × %d engines (%d events, %d runs each)...\n",
		len(cfgs), len(engines), events, runs)
	return writeReport(bench.MeasureReport(label, engines, cfgs, runs), stdout, path)
}

func writeReport(rep bench.BenchReport, stdout io.Writer, path string) error {
	if path == "" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	// A truncated report artifact must not exit 0: surface the flush error.
	return f.Close()
}

func figures(w io.Writer) {
	fmt.Fprintln(w, "## Figures 5–7: AeroDrome's clock evolution on the paper's example traces")
	fmt.Fprintln(w, "```")
	bench.Figures(w)
	fmt.Fprintln(w, "```")
}

func table(w io.Writer, n int, o bench.Options) {
	fmt.Fprintf(w, "## Table %d reproduction (events scaled to ≤%s per row, timeout %v)\n\n",
		n, human(o.MaxEvents), o.Timeout)
	results := bench.RunTable(n, o)
	bench.FormatTable(w, results, o)
}

// ablation compares the three AeroDrome algorithm variants and the two
// Velodrome cycle-detection strategies on a retention-heavy and a
// GC-friendly workload.
func ablation(w io.Writer, o bench.Options) {
	events := o.MaxEvents
	if events > 400_000 {
		events = 400_000 // Basic is O(|Thr|·V) per end event; keep this tractable
	}
	fmt.Fprintf(w, "## Ablations (%s events per workload, timeout %v)\n\n", human(events), o.Timeout)

	engines := []bench.EngineSpec{
		bench.AeroDromeVariant(core.AlgoBasic),
		bench.AeroDromeVariant(core.AlgoReadOpt),
		bench.AeroDromeVariant(core.AlgoOptimized),
		bench.Velodrome(),
		bench.VelodromePK(),
	}

	workloads := []workload.Config{
		{
			Name: "hub-retention", Threads: 8, Vars: 4_000, Locks: 8,
			Events: events, OpsPerTxn: 4, Pattern: workload.PatternHub,
			Inject: workload.ViolationNone, AbsorbEvery: 8, Seed: 42,
		},
		{
			Name: "chain-gc", Threads: 8, Vars: 4_000, Locks: 8,
			Events: events, OpsPerTxn: 4, Pattern: workload.PatternChain,
			Inject: workload.ViolationNone, Seed: 42,
		},
		{
			Name: "unary-philo", Threads: 8, Vars: 64, Locks: 2,
			Events: events, OpsPerTxn: 4, Pattern: workload.PatternSharded,
			TxnFraction: 0, Inject: workload.ViolationNone, Seed: 42,
		},
	}

	fmt.Fprintf(w, "| Workload |")
	for _, e := range engines {
		fmt.Fprintf(w, " %s |", e.Label)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range engines {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for _, cfg := range workloads {
		fmt.Fprintf(w, "| %s |", cfg.Name)
		for _, spec := range engines {
			m := bench.RunTimed(spec, workload.New(cfg), o.Timeout)
			fmt.Fprintf(w, " %s |", m)
		}
		fmt.Fprintln(w)
	}
}

// doubleCheckerRun compares the two-phase analysis against the single-pass
// checkers on a violating workload.
func doubleCheckerRun(w io.Writer, o bench.Options) {
	events := o.MaxEvents
	if events > 400_000 {
		events = 400_000
	}
	fmt.Fprintf(w, "## DoubleChecker-style two-phase analysis (%s events; the paper declines a head-to-head, see §5.1)\n\n", human(events))
	cfg := workload.Config{
		Name: "dc-compare", Threads: 8, Vars: 4_000, Locks: 8,
		Events: events, OpsPerTxn: 4, Pattern: workload.PatternChain,
		Inject: workload.ViolationCross, InjectAt: 0.8, Seed: 7,
	}
	engines := []bench.EngineSpec{
		bench.AeroDrome(), bench.Velodrome(), bench.DoubleChecker(),
	}
	fmt.Fprintf(w, "| Workload |")
	for _, e := range engines {
		fmt.Fprintf(w, " %s |", e.Label)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range engines {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| %s |", cfg.Name)
	for _, spec := range engines {
		m := bench.RunTimed(spec, workload.New(cfg), o.Timeout)
		fmt.Fprintf(w, " %s |", m)
	}
	fmt.Fprintln(w)
}

func human(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.0fK", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}
