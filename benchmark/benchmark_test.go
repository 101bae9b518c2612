package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads at smoke scale, traced, and checks
// that every metric BENCHMARK.json names is printed with its unit, that
// the span file nests, and that a wrong reference verdict fails the run
// without reporting a metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI and the daemon and runs every workload")
	}
	bf, err := loadBenchFile("..")
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	var out, errb bytes.Buffer
	args := []string{"-root", "..", "-scale", "smoke", "-seconds", "1", "-trace", "1", "-spans", spans}
	if code := run(args, &out, &errb, hooks{}); code != 0 {
		t.Fatalf("smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	for _, w := range bf.Workloads {
		for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
			if !printed(lines, w.Name, d) {
				t.Errorf("%s: metric %s (%s) not printed", w.Name, d.Name, d.Unit)
			}
		}
	}

	sp, err := readSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(sp); err != nil {
		t.Error(err)
	}
	names := map[string]bool{}
	for _, s := range sp {
		names[s.Name] = true
	}
	for _, want := range []string{"cli.check", "http.check", "http.session", "http.feed", "http.finalize",
		"ledger", "rapidio.parse", "core.engine", "race.detect", "pipeline.run"} {
		if !names[want] {
			t.Errorf("no %s span in the span file", want)
		}
	}

	for _, wl := range []string{"batch-wide", "serve-check"} {
		out.Reset()
		errb.Reset()
		args := []string{"-root", "..", "-scale", "smoke", "-seconds", "1", "-workload", wl}
		if code := run(args, &out, &errb, hooks{corruptReference: true}); code == 0 {
			t.Errorf("%s: a corrupted reference verdict did not fail the run", wl)
		}
		if !strings.Contains(errb.String(), "verdict mismatch") {
			t.Errorf("%s: no verdict mismatch reported; stderr:\n%s", wl, errb.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, wl+" ") || json.Valid([]byte(line)) && line != "" {
				t.Errorf("%s: a failed run reported %q", wl, line)
			}
		}
	}
}

// printed reports whether the output has a `workload metric value unit`
// line for d.
func printed(lines []string, workload string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == workload && f[1] == d.Name && f[3] == d.Unit {
			return true
		}
	}
	return false
}

// checkNesting reports the first span whose parent is missing, belongs to
// another trace, or does not contain it in time.
func checkNesting(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.SpanID]; dup {
			return fmt.Errorf("span id %d used twice", s.SpanID)
		}
		byID[s.SpanID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.SpanID, s.Name)
		}
		if s.ParentID == 0 {
			continue
		}
		p, ok := byID[s.ParentID]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s): parent %d missing", s.SpanID, s.Name, s.ParentID)
		case p.TraceID != s.TraceID:
			return fmt.Errorf("span %d (%s): parent %d is in another trace", s.SpanID, s.Name, s.ParentID)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.SpanID, s.Name, p.SpanID, p.Name)
		}
	}
	return nil
}

// readSpans loads a span file written by tracer.write.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}
