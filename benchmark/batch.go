package main

// The batch workloads: the aerodrome CLI checks one large trace file, one
// run at a time, with its own default engine. batch-narrow (8 threads) is
// parse-heavy; batch-wide (256 threads) is engine-heavy.

import (
	"os"
	"path/filepath"
	"time"
)

func runBatchNarrow(e *env, res *result) error {
	return runBatch(e, res, traceSpec{
		Pattern: "chain", Threads: 8, Vars: 8192, Locks: 32,
		Events: e.scale.narrowEvents, Inject: "none", Seed: e.seed,
	})
}

func runBatchWide(e *env, res *result) error {
	return runBatch(e, res, traceSpec{
		Pattern: "chain", Threads: e.scale.wideThreads, Vars: 8192, Locks: 32,
		Events: e.scale.wideEvents, Inject: "cross", InjectAt: 0.95, Seed: e.seed,
	})
}

// setupTrace is the one-transaction trace whose CLI wall time is the batch
// workloads' set-up time: process start, engine construction and exit.
const setupTrace = "t0|begin|0\nt0|w(x0)|0\nt0|end|0\n"

func runBatch(e *env, res *result, spec traceSpec) error {
	data, err := render(spec)
	if err != nil {
		return err
	}
	ins := []*input{{data: data}}
	if err := pinInputs(e, res, ins); err != nil {
		return err
	}
	if err := references(e, res.Workload, ins); err != nil {
		return err
	}
	dir := filepath.Join(e.dir, "inputs", res.Workload)
	path := filepath.Join(dir, "0.std")
	ref := ins[0].ref

	tiny := filepath.Join(dir, "setup.std")
	if err := os.WriteFile(tiny, []byte(setupTrace), 0o644); err != nil {
		return err
	}
	tinyRef := verdict{Clean: true, Events: 3}
	var setups []float64
	for i := 0; i < e.scale.setupReps; i++ {
		r, err := runCLI(e.cli, tiny)
		if err != nil {
			return err
		}
		if err := checkCLI(r, tinyRef); err != nil {
			return err
		}
		setups = append(setups, r.wall.Seconds())
	}

	// check runs the CLI once on the input and pins its verdict.
	check := func(tr *tracer) (cliResult, string, error) {
		r, err := runCLI(e.cli, path)
		if err != nil {
			return r, "", err
		}
		p, err := parseCLI(r.stdout, r.exit)
		if err != nil {
			return r, "", err
		}
		if err := sameAtomicity("CLI", p.verdict, ref); err != nil {
			return r, "", err
		}
		end := time.Now()
		tr.root("cli.check", end.Add(-r.wall), end, map[string]any{
			"events": p.verdict.Events, "exit": r.exit, "rss_mib": r.rssMiB, "algorithm": p.algorithm,
		})
		return r, p.algorithm, nil
	}
	// One warm-up run, so the input is in the page cache before timing.
	_, engine, err := check(nil)
	if err != nil {
		return err
	}
	var box []float64
	runs := func(name string, d time.Duration, tr *tracer) (walls, rss []float64, err error) {
		start := time.Now()
		for len(walls) < e.scale.minRuns || time.Since(start) < d {
			box = append(box, probeMs(1)...)
			r, _, err := check(tr)
			if err != nil {
				return nil, nil, err
			}
			walls = append(walls, r.wall.Seconds())
			rss = append(rss, r.rssMiB)
		}
		res.step(name, len(walls), time.Since(start))
		res.Attempted += len(walls)
		return walls, rss, nil
	}
	walls, rss, err := runs("cli runs", e.phase(1), nil)
	if err != nil {
		return err
	}
	tput := make([]float64, len(walls))
	ms := make([]float64, len(walls))
	for i, w := range walls {
		tput[i] = float64(ref.Events) / w / 1e6
		ms[i] = w * 1000
	}
	res.put("throughput_mev_s", timing(tput, "Mevents/s", "higher"))
	res.put("p50_ms", timing(ms, "ms", "lower"))
	res.put("p90_ms", single(quantile(ms, 0.9), "ms", "lower", len(ms)))
	res.put("peak_rss_mib", timing(rss, "MiB", "lower"))
	res.put("setup_s", timing(setups, "s", "lower"))
	res.put("box.probe_ms", timing(box, "ms", "lower"))

	if e.tr == nil {
		return nil
	}
	mark := e.tr.mark()
	tracedWalls, _, err := runs("traced cli runs", e.phase(0.5), e.tr)
	if err != nil {
		return err
	}
	l, err := runLedger([][]byte{data}, [][]byte{data}, engine, e.scale.ledgerReps, e.tr)
	if err != nil {
		return err
	}
	inChecker := (l.parseNS*float64(l.events) + l.coreNS*float64(ref.Events)) / 1e9
	res.layer("cli.startup_ms", median(setups)*1000, "ms")
	res.layer("cli.other_s", median(walls)-inChecker, "s")
	putLedger(res, l)
	res.layer("surface.other_ms", (median(walls)-inChecker)*1000, "ms")
	res.layer("trace_overhead_pct", overheadPct(median(tracedWalls), median(walls)), "%")
	res.SelfTimes = selfTimes(e.tr.since(mark))
	return nil
}

// checkCLI pins a CLI run's verdict.
func checkCLI(r cliResult, want verdict) error {
	p, err := parseCLI(r.stdout, r.exit)
	if err != nil {
		return err
	}
	return sameAtomicity("CLI", p.verdict, want)
}

// putLedger reports the in-process ledger's per-layer metrics.
func putLedger(res *result, l ledger) {
	res.layer("rapidio.ns_per_event", l.parseNS, "ns/event")
	res.layer("rapidio.allocs_per_event", l.parseAllocs, "allocs/event")
	res.layer("rapidio.bytes_per_event", l.parseBytes, "B/event")
	res.layer("core.ns_per_event", l.coreNS, "ns/event")
	res.layer("core.allocs_per_event", l.coreAllocs, "allocs/event")
	res.layer("core.bytes_per_event", l.coreBytes, "B/event")
	res.layer("core.epoch_hit_rate", l.epochHitRate, "ratio")
	res.layer("core.ends_full", float64(l.endsFull), "count")
	res.layer("core.width_promotions", float64(l.widthPromotions), "count")
	res.layer("race.ns_per_event", l.raceNS, "ns/event")
	res.layer("pipeline.ns_per_event", l.pipeNS, "ns/event")
	res.layer("pipeline.overlap", l.overlap, "ratio")
}

// overheadPct is how much slower the traced pass ran than the untraced one.
func overheadPct(traced, untraced float64) float64 {
	return (traced/untraced - 1) * 100
}
