package main

// -compare A B: the verdict of a change against its parent, metric by
// metric, from two sets of -out run files.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRuns reads every run file a -compare argument names: a file, a
// directory of *.json files, or a glob.
func loadRuns(arg string) ([]report, error) {
	var files []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(arg, "*.json"))
	} else if err == nil {
		files = []string{arg}
	} else {
		files, _ = filepath.Glob(arg)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no run files", arg)
	}
	var out []report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// series gathers each (workload, metric) value across runs.
type seriesKey struct{ workload, metric string }

type series struct {
	values []float64
	unit   string
	better string
}

func collect(runs []report) map[seriesKey]*series {
	out := map[seriesKey]*series{}
	for _, r := range runs {
		for _, w := range r.Workloads {
			for name, m := range w.Metrics {
				k := seriesKey{w.Workload, name}
				s := out[k]
				if s == nil {
					s = &series{unit: m.Unit, better: m.Better}
					out[k] = s
				}
				s.values = append(s.values, m.Value)
			}
		}
	}
	return out
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdictOf judges B against A. worse is the share by which B's median is
// worse than A's (negative when better). When either side's spread exceeds
// the bound, only total separation — every run of one side beating every
// run of the other — decides; otherwise the medians are held to the bound.
func verdictOf(a, b []float64, better string, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
	} else if mb != 0 {
		worse = 1
	}
	if better == "higher" {
		worse = -worse
	}
	if max(relSpread(a), relSpread(b)) > bound {
		switch {
		case beatsAll(b, a, better):
			return "better", worse
		case beatsAll(a, b, better):
			return "worse", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "unchanged", worse
}

// beatsAll reports whether every value of x beats every value of y.
func beatsAll(x, y []float64, better string) bool {
	xs, ys := sorted(x), sorted(y)
	if better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// defaultBound is the bound for a metric BENCHMARK.json does not list:
// twice the baseline's relative spread, between 5% and 10%.
func defaultBound(a []float64) float64 {
	return min(max(0.05, 2*relSpread(a)), 0.10)
}

func runCompare(bf benchFile, argA, argB string, stdout, stderr io.Writer) int {
	runsA, err := loadRuns(argA)
	if err == nil {
		var runsB []report
		runsB, err = loadRuns(argB)
		if err == nil {
			compareRuns(bf, runsA, runsB, stdout)
			return 0
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareRuns(bf benchFile, runsA, runsB []report, w io.Writer) {
	bounds := map[string]float64{}
	for _, d := range bf.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	sa, sb := collect(runsA), collect(runsB)
	var keys []seriesKey
	for k := range sa {
		if sb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "# A: %d runs, B: %d runs; medians [q1 q3]; change as a share of A, positive = worse\n", len(runsA), len(runsB))
	fmt.Fprintf(w, "%-16s %-18s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, k := range keys {
		a, b := sa[k], sb[k]
		bound, listed := bounds[k.metric]
		if !listed {
			bound = defaultBound(a.values)
		}
		v, worse := verdictOf(a.values, b.values, a.better, bound)
		fmt.Fprintf(w, "%-16s %-18s %-34s %-34s %+7.1f%% %5.1f%%  %s\n", k.workload, k.metric,
			describe(a.values, a.unit), describe(b.values, b.unit), 100*worse, 100*bound, v)
	}
}

func describe(xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	g := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	return strings.TrimSpace(fmt.Sprintf("%s [%s %s] %s", g(q2), g(q1), g(q3), unit))
}
