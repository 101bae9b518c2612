// Command benchmark is the repository's comparison benchmark: four
// workloads driven from outside through what ships — the aerodrome CLI and
// the aerodromed HTTP wire, both built from the working tree — with every
// verdict pinned to an independent reference, end-to-end metrics from
// untraced runs, and a traced run that splits the time by layer. See
// README.md for the workloads, the metrics and how to run, trace and
// compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, hooks{}))
}

// hooks are the smoke test's handles on a run; the command line has none.
type hooks struct {
	// corruptReference flips the first reference verdict of every
	// workload, which must make the run fail.
	corruptReference bool
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(root string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// env is what every workload runs against.
type env struct {
	root, dir   string // repository root; .bench_build under it
	cli, daemon string // binaries built from the working tree
	seed        int64
	seconds     float64
	scale       scale
	tr          *tracer // nil unless the run is traced
	hooks       hooks
}

// phase returns a share of the run's measuring time.
func (e *env) phase(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// metric is one reported number.
type metric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	N      int      `json:"n"`            // samples behind the value
	Q1     *float64 `json:"q1,omitempty"` // quartiles of the samples, where the value is their median
	Q3     *float64 `json:"q3,omitempty"`
}

// step records how many samples one measuring step took.
type step struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Seconds float64 `json:"seconds"`
}

// result is one workload's run.
type result struct {
	Workload    string            `json:"workload"`
	Fingerprint string            `json:"fingerprint"`
	Metrics     map[string]metric `json:"metrics"`
	Layers      map[string]metric `json:"layers,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Steps       []step            `json:"steps"`
	SelfTimes   []layerTime       `json:"self_times,omitempty"`

	order      []string // metric print order
	layerOrder []string
	firstErr   error // first failed request, for the log
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]metric{}, Layers: map[string]metric{}}
}

func (r *result) put(name string, m metric) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = m
}

func (r *result) layer(name string, v float64, unit string) {
	if _, ok := r.Layers[name]; !ok {
		r.layerOrder = append(r.layerOrder, name)
	}
	r.Layers[name] = metric{Value: v, Unit: unit, N: 1}
}

// count adds an open-loop phase's arrivals and failures to the run's.
func (r *result) count(l loadResult) {
	r.Attempted += l.arrivals
	r.Failed += l.failed + l.debt
	if r.firstErr == nil {
		r.firstErr = l.err
	}
}

func (r *result) step(name string, samples int, d time.Duration) {
	r.Steps = append(r.Steps, step{name, samples, d.Seconds()})
}

// timing builds a metric that is the median of samples, with quartiles.
func timing(samples []float64, unit, better string) metric {
	q1, q2, q3 := quartiles(samples)
	return metric{Value: q2, Unit: unit, Better: better, N: len(samples), Q1: &q1, Q3: &q3}
}

func single(v float64, unit, better string, n int) metric {
	return metric{Value: v, Unit: unit, Better: better, N: n}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env, *result) error{
	"batch-narrow":    runBatchNarrow,
	"batch-wide":      runBatchWide,
	"serve-check":     runServe,
	"stream-sessions": runStream,
}

var workloadOrder = []string{"batch-narrow", "batch-wide", "serve-check", "stream-sessions"}

// header describes the box and the run, for the report and -out.
type header struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Trace      bool    `json:"trace"`
	LoadStart  string  `json:"loadavg_start"`
	LoadEnd    string  `json:"loadavg_end"`
}

type report struct {
	Header    header    `json:"header"`
	Workloads []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer, hk hooks) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "..", "repository root")
	wl := fs.String("workload", "", "run one workload (default: all four, in order)")
	seed := fs.Int64("seed", 1, "input and arrival seed")
	seconds := fs.Float64("seconds", 0, "measuring time per workload (default: BENCHMARK.json run_seconds)")
	traceOn := fs.Int("trace", 0, "1 = traced run: end-to-end pass, traced pass, then the in-process ledger")
	spansPath := fs.String("spans", "", "span file of a traced run (default .bench_build/spans.jsonl)")
	out := fs.String("out", "", "write the run report as JSON to this file")
	scaleName := fs.String("scale", "full", "input and load scale: full or smoke")
	compare := fs.Bool("compare", false, "compare two sets of -out files: -compare A B, each a file, a directory or a glob")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchFile(*root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A B")
			return 2
		}
		return runCompare(bf, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok || fs.NArg() != 0 || (*traceOn != 0 && *traceOn != 1) {
		fs.Usage()
		return 2
	}
	names := workloadOrder
	if *wl != "" {
		if workloads[*wl] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadOrder, ", "))
			return 2
		}
		names = []string{*wl}
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}

	// A signal stops the children before the benchmark goes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	defer func() {
		signal.Stop(sigs)
		close(finished)
		killChildren()
	}()
	go func() {
		select {
		case <-sigs:
			killChildren()
			os.Exit(1)
		case <-finished:
		}
	}()

	e := &env{root: *root, dir: filepath.Join(*root, ".bench_build"), seed: *seed, seconds: *seconds, scale: sc, hooks: hk}
	rep := report{Header: header{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: gitHead(*root), Seed: *seed, Seconds: *seconds, Scale: sc.name, Trace: *traceOn == 1,
		LoadStart: loadavg(),
	}}
	h := rep.Header
	fmt.Fprintf(stdout, "# nproc %d, GOMAXPROCS %d, %s, HEAD %s, seed %d, %gs per workload, scale %s, trace %v, loadavg %s\n",
		h.Nproc, h.GOMAXPROCS, h.GoVersion, h.GitHead, h.Seed, h.Seconds, h.Scale, h.Trace, h.LoadStart)
	if err := e.build(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *traceOn == 1 {
		e.tr = newTracer()
	}
	for _, name := range names {
		res := newResult(name)
		if err := workloads[name](e, res); err != nil {
			var m *mismatch
			if errors.As(err, &m) {
				fmt.Fprintf(stderr, "benchmark: %s: %v; no metric is reported\n", name, err)
			} else {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			}
			return 1
		}
		res.put("fail_ratio", single(float64(res.Failed)/float64(res.Attempted), "fraction", "lower", res.Attempted))
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; the first: %v\n", name, res.Failed, res.Attempted, res.firstErr)
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	rep.Header.LoadEnd = loadavg()
	fmt.Fprintf(stdout, "# loadavg at end %s\n", rep.Header.LoadEnd)
	for _, res := range rep.Workloads {
		printResult(stdout, res)
	}
	if e.tr != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(e.dir, "spans.jsonl")
		}
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: writing -out:", err)
			return 1
		}
	}
	if len(rep.Workloads) == 1 {
		defs := bf.EndToEnd
		if e.tr != nil {
			defs = bf.PerLayer
		}
		line, err := summaryLine(rep.Workloads[0], defs, e.tr != nil)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// build compiles the CLI and the daemon from the working tree.
func (e *env) build() error {
	bin := filepath.Join(e.dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/aerodrome", "./cmd/aerodromed")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the CLI and the daemon: %v\n%s", err, out)
	}
	e.cli, e.daemon = filepath.Join(bin, "aerodrome"), filepath.Join(bin, "aerodromed")
	return nil
}

func gitHead(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unavailable"
	}
	return strings.Join(f[:3], " ")
}

// printResult writes one workload's lines: `workload metric value unit`,
// with the sample count (and quartiles of a median) after it.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s inputs sha256 %s\n", r.Workload, r.Fingerprint)
	for _, s := range r.Steps {
		fmt.Fprintf(w, "# %s step %s: %d samples in %.2fs\n", r.Workload, s.Name, s.Samples, s.Seconds)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		extra := fmt.Sprintf("n=%d", m.N)
		if m.Q1 != nil {
			extra += fmt.Sprintf(" q1=%s q3=%s", num(*m.Q1), num(*m.Q3))
		}
		fmt.Fprintf(w, "%s %s %s %s (%s)\n", r.Workload, name, num(m.Value), m.Unit, extra)
	}
	if len(r.SelfTimes) > 0 {
		printSelfTimes(w, r.Workload, r.SelfTimes)
	}
	for _, name := range r.layerOrder {
		m := r.Layers[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, num(m.Value), m.Unit)
	}
}

func num(v float64) string { return fmt.Sprintf("%.6g", v) }

// summaryLine renders the last line of a single-workload run: the
// end-to-end metrics of BENCHMARK.json, or its per-layer metrics for a
// traced run.
func summaryLine(r *result, defs []metricDef, traced bool) (string, error) {
	src := r.Metrics
	if traced {
		src = r.Layers
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		m, ok := src[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out[d.Name] = map[string]any{"value": m.Value, "unit": d.Unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": out,
	})
	return string(data), err
}
