// Package bench is the experiment harness that regenerates the paper's
// evaluation: timed, timeout-guarded head-to-head runs of the checkers over
// the Table 1 / Table 2 workloads, with table formatting that mirrors the
// paper's columns (events, threads, locks, variables, transactions,
// verdict, Velodrome time, AeroDrome time, speedup).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/doublechecker"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
	"aerodrome/internal/workload"
)

// EngineSpec names a checker and constructs fresh instances of it.
type EngineSpec struct {
	Label string
	New   func() core.Engine
}

// AeroDrome returns the paper's evaluated AeroDrome configuration
// (Algorithm 3).
func AeroDrome() EngineSpec {
	return EngineSpec{Label: "aerodrome", New: func() core.Engine { return core.NewOptimized() }}
}

// AeroDromeVariant returns a specific AeroDrome algorithm variant.
func AeroDromeVariant(a core.Algorithm) EngineSpec {
	return EngineSpec{Label: a.String(), New: func() core.Engine { return core.New(a) }}
}

// Velodrome returns the baseline with per-edge DFS cycle checks.
func Velodrome() EngineSpec {
	return EngineSpec{Label: "velodrome", New: func() core.Engine { return velodrome.New() }}
}

// VelodromePK returns the Pearce–Kelly ablation of the baseline.
func VelodromePK() EngineSpec {
	return EngineSpec{Label: "velodrome-pk", New: func() core.Engine {
		return velodrome.New(velodrome.WithStrategy("pearce-kelly"))
	}}
}

// DoubleChecker returns the two-phase extension.
func DoubleChecker() EngineSpec {
	return EngineSpec{Label: "doublechecker", New: func() core.Engine { return doublechecker.New(0) }}
}

// Measurement is the outcome of one engine on one workload.
type Measurement struct {
	Engine    string
	Duration  time.Duration
	Events    int64
	Violation *core.Violation
	TimedOut  bool
}

// String renders the measurement's time like the paper ("TO" on timeout).
func (m Measurement) String() string {
	if m.TimedOut {
		return "TO"
	}
	return formatDuration(m.Duration)
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// timeoutCheckEvery bounds how often the deadline is polled.
const timeoutCheckEvery = 8192

// RunTimed drives an engine over a source until the first violation, the
// end of the stream, or the timeout (0 = none).
func RunTimed(spec EngineSpec, src trace.Source, timeout time.Duration) Measurement {
	eng := spec.New()
	start := time.Now()
	deadline := time.Time{}
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	m := Measurement{Engine: spec.Label}
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if v := eng.Process(e); v != nil {
			m.Violation = v
			break
		}
		if !deadline.IsZero() && eng.Processed()%timeoutCheckEvery == 0 &&
			time.Now().After(deadline) {
			m.TimedOut = true
			break
		}
	}
	m.Duration = time.Since(start)
	m.Events = eng.Processed()
	return m
}

// Result is one benchmark row: the workload's characteristics plus one
// measurement per engine.
type Result struct {
	Row          workload.PaperRow
	Stats        trace.Stats
	Measurements []Measurement
}

// Violation reports whether any engine found a violation.
func (r Result) Violation() bool {
	for _, m := range r.Measurements {
		if m.Violation != nil {
			return true
		}
	}
	return false
}

// Speedup returns t(Measurements[base]) / t(Measurements[subject]) with the
// paper's ">" convention when the base timed out.
func (r Result) Speedup(base, subject int) string {
	b, s := r.Measurements[base], r.Measurements[subject]
	if s.TimedOut {
		return "–"
	}
	ratio := float64(b.Duration) / float64(s.Duration)
	if b.TimedOut {
		return fmt.Sprintf("> %.0f", ratio)
	}
	if ratio >= 100 {
		return fmt.Sprintf("%.0f", ratio)
	}
	return fmt.Sprintf("%.2f", ratio)
}

// Options configures a table run.
type Options struct {
	// MaxEvents caps each row's trace length (default 2M).
	MaxEvents int64
	// MaxVars caps each row's variable pool (default 20k).
	MaxVars int
	// Timeout per engine per row (default 30s; the paper used 10h at full
	// scale).
	Timeout time.Duration
	// Engines to race (default Velodrome then AeroDrome, matching the
	// paper's columns 8 and 9).
	Engines []EngineSpec
	// Progress, when non-nil, receives row-start notifications.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 2_000_000
	}
	if o.MaxVars <= 0 {
		o.MaxVars = 20_000
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if len(o.Engines) == 0 {
		o.Engines = []EngineSpec{Velodrome(), AeroDrome()}
	}
	return o
}

// RunRow measures every engine on one row's workload. Each engine consumes
// a fresh generator with the same seed, i.e. the identical trace — the
// paper's same-logged-trace methodology.
func RunRow(row workload.PaperRow, o Options) Result {
	o = o.withDefaults()
	res := Result{Row: row}
	res.Stats = trace.ComputeStats(workload.New(row.Config))
	for _, spec := range o.Engines {
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "  %-14s %-22s ...", row.Config.Name, spec.Label)
		}
		m := RunTimed(spec, workload.New(row.Config), o.Timeout)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, " %s\n", m)
		}
		res.Measurements = append(res.Measurements, m)
	}
	return res
}

// RunTable measures all rows of the paper's Table 1 or Table 2.
func RunTable(table int, o Options) []Result {
	o = o.withDefaults()
	var rows []workload.PaperRow
	if table == 1 {
		rows = workload.Table1(o.MaxEvents, o.MaxVars)
	} else {
		rows = workload.Table2(o.MaxEvents, o.MaxVars)
	}
	var out []Result
	for _, row := range rows {
		out = append(out, RunRow(row, o))
	}
	return out
}

// FormatTable renders results in the paper's column layout as a Markdown
// table, with the paper's own numbers inlined for comparison.
func FormatTable(w io.Writer, results []Result, o Options) {
	o = o.withDefaults()
	fmt.Fprintf(w, "| Program | Events | Threads | Locks | Vars | Txns | Atomic? | Paper (V/A/speedup) |")
	for _, e := range o.Engines {
		fmt.Fprintf(w, " %s |", e.Label)
	}
	fmt.Fprintf(w, " Speedup |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|")
	for range o.Engines {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "\n")

	for _, r := range results {
		atomic := "✗"
		if !r.Violation() {
			atomic = "✓"
		}
		paperAtomic := "✗"
		if r.Row.PaperAtomic {
			paperAtomic = "✓"
		}
		fmt.Fprintf(w, "| %s | %s | %d | %d | %s | %s | %s (paper %s) | %s/%s/%s |",
			r.Row.Config.Name,
			humanCount(r.Stats.Events),
			r.Stats.Threads,
			r.Stats.Locks,
			humanCount(int64(r.Stats.Vars)),
			humanCount(r.Stats.Transactions),
			atomic, paperAtomic,
			r.Row.PaperVelo, r.Row.PaperAero, r.Row.PaperSpeedup,
		)
		for _, m := range r.Measurements {
			fmt.Fprintf(w, " %s |", m)
		}
		fmt.Fprintf(w, " %s |\n", r.Speedup(0, len(r.Measurements)-1))
	}
}

// humanCount renders counts the way the paper does (2.4B, 86M, 22.6K).
func humanCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return trimZero(fmt.Sprintf("%.1fB", float64(v)/1e9))
	case v >= 1_000_000:
		return trimZero(fmt.Sprintf("%.1fM", float64(v)/1e6))
	case v >= 10_000:
		return trimZero(fmt.Sprintf("%.1fK", float64(v)/1e3))
	default:
		return fmt.Sprintf("%d", v)
	}
}

func trimZero(s string) string {
	return strings.Replace(s, ".0", "", 1)
}
