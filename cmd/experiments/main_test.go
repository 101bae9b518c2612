package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aerodrome/internal/bench"
)

func TestFiguresRun(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "figures"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "⟨2,2,2⟩", "violation"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestTinyTable2Run(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-run", "table2", "-events", "8000", "-vars", "300", "-timeout", "20s"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"batik", "fop", "tomcat", "velodrome", "aerodrome", "Speedup"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestTinyAblationRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-run", "ablation", "-events", "8000", "-vars", "300", "-timeout", "20s"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"hub-retention", "chain-gc", "aerodrome-basic", "velodrome-pk"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestTinyDoubleCheckerRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-run", "doublechecker", "-events", "8000", "-vars", "300", "-timeout", "20s"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "doublechecker") {
		t.Fatalf("missing doublechecker column:\n%s", out.String())
	}
}

// TestTinyBenchRun pins what -run bench reports: one Algorithm 3 row per
// thread-scaling workload, nothing else.
func TestTinyBenchRun(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "bench", "-events", "2000", "-runs", "1", "-label", "tiny"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var rep bench.BenchReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	cfgs := bench.ThreadScalingConfigs(2000)
	if rep.Label != "tiny" || len(rep.Rows) != len(cfgs) {
		t.Fatalf("label %q with %d rows, want tiny with %d", rep.Label, len(rep.Rows), len(cfgs))
	}
	for i, r := range rep.Rows {
		if r.Workload != cfgs[i].Name || r.Engine != "aerodrome-optimized" || r.Events == 0 || r.NsPerEvent <= 0 {
			t.Fatalf("row %d = %+v, want aerodrome-optimized on %s", i, r, cfgs[i].Name)
		}
	}
}

func TestUnknownRun(t *testing.T) {
	for _, mode := range []string{"bogus", "saturate", "load"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-run", mode}, &out, &errOut); code != 2 {
			t.Fatalf("-run %s: exit %d", mode, code)
		}
	}
}
