package bench

// The CI perf-regression gate. None of the repository's perf work (PR 1–4)
// was protected by CI before this: a refactor could quietly triple the hot
// path and every test would stay green. The gate re-measures a pinned,
// fast row subset — the Algorithm 3 engine on sharded-t64 (pure checking),
// ingest-pipe on the same workload (tokenize+check, the path a service
// request actually runs) and the engine again on sharded-t256 (the widest
// sharded shape, where flat clocks cost the most per event) — and compares
// ns/event and allocs/event against the gate_rows baseline checked into
// BENCH_baseline.json.
//
// Thresholds are deliberately generous: CI machines differ from the box
// that recorded the baseline, and same-machine numbers drift ~20% between
// sessions (see ROADMAP). A 2× time budget never fires on noise but
// catches the regressions worth catching (the calibration demo is a 3×
// slowdown patched into the flat engine — it fails the gate; see the CI
// workflow). allocs/event is near machine-independent, so its 2× budget
// is effectively a structural-regression detector. When CI hardware
// changes class, refresh the baseline with
// `experiments -run bench -update-gate`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"aerodrome/internal/core"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/workload"
)

const (
	// GateNsThreshold fails the gate when measured ns/event exceeds
	// baseline × this factor.
	GateNsThreshold = 2.0
	// GateAllocsThreshold is the same budget for allocs/event. Baseline
	// zero-alloc rows get an absolute floor instead (see gateAllocsOK).
	GateAllocsThreshold = 2.0
	// gateEvents/gateRuns keep one gate run under ~10s of CI time.
	gateEvents = 200_000
	gateRuns   = 3
)

// gateWorkload returns the named workload of the thread-scaling grid at
// the gate's event budget.
func gateWorkload(name string) workload.Config {
	for _, cfg := range ThreadScalingConfigs(gateEvents) {
		if cfg.Name == name {
			return cfg
		}
	}
	panic("bench: " + name + " missing from the thread-scaling grid")
}

// ingestPipe labels the gate's ingest row; BENCH_baseline.json's
// gate_rows key on it.
const ingestPipe = "ingest-pipe"

// MeasureGateRows measures the pinned gate subset: the Optimized engine
// (engine-only) and the pipelined ingest path on sharded-t64, and the
// engine alone on sharded-t256.
func MeasureGateRows() []BenchRow {
	engine := AeroDromeVariant(core.AlgoOptimized)
	cfg := gateWorkload("sharded-t64")
	return []BenchRow{
		MeasureRow(engine, cfg, gateRuns),
		measureIngestPipe(cfg, gateRuns),
		MeasureRow(engine, gateWorkload("sharded-t256"), gateRuns),
	}
}

// measureIngestPipe renders cfg's trace to an in-memory STD log once and
// times parsing and checking it through the pipelined reader with the flat
// Optimized engine: tokenization, interning and checking, the path a
// service request runs.
func measureIngestPipe(cfg workload.Config, runs int) BenchRow {
	var buf bytes.Buffer
	if _, err := rapidio.WriteSource(&buf, workload.New(cfg)); err != nil {
		panic(fmt.Sprintf("bench: rendering %s: %v", cfg.Name, err))
	}
	data := buf.Bytes()
	return measure(cfg, ingestPipe, runs, func() int64 {
		v, n, err := pipeline.Run(core.NewOptimized(), rapidio.NewReader(bytes.NewReader(data)), pipeline.Config{})
		if v != nil {
			panic(fmt.Sprintf("bench: ingest %s: unexpected violation %v", cfg.Name, v))
		}
		if err != nil {
			panic(fmt.Sprintf("bench: ingest %s: %v", cfg.Name, err))
		}
		return n
	})
}

// gateAllocsOK applies the allocation budget. Rows can legitimately sit
// near zero allocs/event where a ratio is numerically meaningless, so
// below an absolute floor of 0.5 allocs/event the row always passes.
func gateAllocsOK(baseline, measured float64) bool {
	if measured < 0.5 {
		return true
	}
	return measured <= baseline*GateAllocsThreshold
}

// RunGate re-measures the gate rows and compares them against the
// gate_rows baseline in the report at baselinePath, printing a verdict
// table to w. It returns an error (CI failure) when any row breaches a
// threshold, or when the baseline has no gate rows.
func RunGate(w io.Writer, baselinePath string) error {
	baseline, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	if len(baseline.GateRows) == 0 {
		return fmt.Errorf("bench: %s has no gate_rows; run `experiments -run bench -update-gate` and commit the result", baselinePath)
	}
	base := map[string]BenchRow{}
	for _, r := range baseline.GateRows {
		base[r.Workload+"/"+r.Engine] = r
	}

	fmt.Fprintf(w, "bench gate vs %s (time budget %.1fx, alloc budget %.1fx)\n\n",
		baselinePath, GateNsThreshold, GateAllocsThreshold)
	fmt.Fprintf(w, "| row | ns/event (base → now) | ratio | allocs/event (base → now) | verdict |\n|---|---|---|---|---|\n")
	var breaches []string
	for _, m := range MeasureGateRows() {
		key := m.Workload + "/" + m.Engine
		b, ok := base[key]
		if !ok {
			return fmt.Errorf("bench: baseline gate_rows missing %s; refresh with -update-gate", key)
		}
		ratio := m.NsPerEvent / b.NsPerEvent
		verdict := "ok"
		if ratio > GateNsThreshold {
			verdict = "FAIL time"
			breaches = append(breaches, fmt.Sprintf("%s: %.0f ns/event vs baseline %.0f (%.2fx > %.1fx)",
				key, m.NsPerEvent, b.NsPerEvent, ratio, GateNsThreshold))
		}
		if !gateAllocsOK(b.AllocsPerEvent, m.AllocsPerEvent) {
			verdict = "FAIL allocs"
			breaches = append(breaches, fmt.Sprintf("%s: %.2f allocs/event vs baseline %.2f (> %.1fx)",
				key, m.AllocsPerEvent, b.AllocsPerEvent, GateAllocsThreshold))
		}
		fmt.Fprintf(w, "| %s | %.0f → %.0f | %.2fx | %.2f → %.2f | %s |\n",
			key, b.NsPerEvent, m.NsPerEvent, ratio, b.AllocsPerEvent, m.AllocsPerEvent, verdict)
	}
	fmt.Fprintln(w)
	if len(breaches) > 0 {
		for _, b := range breaches {
			fmt.Fprintln(w, "BREACH:", b)
		}
		return fmt.Errorf("bench: perf gate failed (%d breach(es))", len(breaches))
	}
	fmt.Fprintln(w, "bench gate passed")
	return nil
}

// UpdateGateBaseline re-measures the gate rows and writes them into the
// gate_rows field of the report at path, leaving every other field —
// notably the historical seed-engine Rows — untouched.
func UpdateGateBaseline(w io.Writer, path string) error {
	rep, err := readReport(path)
	if err != nil {
		return err
	}
	rep.GateRows = MeasureGateRows()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range rep.GateRows {
		fmt.Fprintf(w, "gate baseline %s/%s: %.0f ns/event, %.2f allocs/event\n",
			r.Workload, r.Engine, r.NsPerEvent, r.AllocsPerEvent)
	}
	return nil
}

// readReport loads a BenchReport JSON file.
func readReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &rep, nil
}
