package main

// The only file that calls the repository's packages directly. Inputs are
// rendered by the trace generator and the STD writer; the hbrace reference
// comes from the naive oracle; and the ledger calls each layer's public
// function on its own, on the same inputs the surfaces were given, so a
// traced run can say which layer spent the time.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

// traceSpec describes one generated input trace.
type traceSpec struct {
	Pattern     string
	Threads     int
	Vars, Locks int
	Events      int64
	Inject      string // none, cross, delayed or lock
	InjectAt    float64
	TxnFraction float64
	Seed        int64
}

// render generates a trace and writes it in the STD text format.
func render(s traceSpec) ([]byte, error) {
	var buf bytes.Buffer
	_, err := rapidio.WriteSource(&buf, workload.New(workload.Config{
		Threads: s.Threads, Vars: s.Vars, Locks: s.Locks, Events: s.Events,
		Pattern: workload.Pattern(s.Pattern), Inject: workload.Violation(s.Inject),
		InjectAt: s.InjectAt, TxnFraction: s.TxnFraction, Seed: s.Seed,
	}))
	return buf.Bytes(), err
}

// decode parses an STD trace into events.
func decode(data []byte) ([]trace.Event, error) {
	rd := rapidio.NewReader(bytes.NewReader(data))
	var out []trace.Event
	buf := make([]trace.Event, 4096)
	for {
		n, err := rd.ReadBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// raceReference runs the naive happens-before oracle over a trace.
func raceReference(data []byte) (verdict, error) {
	evs, err := decode(data)
	if err != nil {
		return verdict{}, err
	}
	d := race.NewNaive()
	for _, e := range evs {
		if d.Process(e) != nil {
			break
		}
	}
	out := verdict{Clean: true, Events: d.Processed()}
	if v := d.Violation(); v != nil {
		out = verdict{Events: d.Processed(), Index: v.Index, Check: v.Check.String(),
			Thread: int(v.Thread), Target: int(v.Var), Other: int(v.Other)}
	}
	return out, nil
}

// engineByName maps the engine name a surface reports (the CLI's
// "algorithm:" line, the server's engine selections) to the core variant.
func engineByName(name string) (core.Algorithm, error) {
	for a := core.AlgoBasic; a <= core.AlgoOptimizedAuto; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("surface reports engine %q, which is not an Algorithm 1-3 engine", name)
}

// ledger holds the per-layer measurements of one workload's inputs.
type ledger struct {
	events int64 // events per pass

	parseNS, parseAllocs, parseBytes float64 // per event
	coreNS, coreAllocs, coreBytes    float64
	epochHitRate                     float64
	endsFull, widthPromotions        int64
	raceNS                           float64
	raceEvents                       int64
	pipeNS, overlap                  float64
}

// measure runs f after a collection, timing it and counting its
// allocations.
func measure(f func()) (allocs, nbytes uint64, start time.Time, d time.Duration) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	start = time.Now()
	f()
	d = time.Since(start)
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, start, d
}

// runLedger times each layer on its own over the inputs, reps times, and
// keeps the median pass of each. engine is the name the surface reported;
// raceInputs are the traces the surface ran the hbrace analysis on (all
// inputs when the surface never runs it). Each pass is recorded as a
// "ledger" trace whose children are the layer calls.
func runLedger(inputs, raceInputs [][]byte, engine string, reps int, tr *tracer) (ledger, error) {
	algo, err := engineByName(engine)
	if err != nil {
		return ledger{}, err
	}
	var l ledger
	decoded, err := decodeAll(inputs)
	if err != nil {
		return ledger{}, err
	}
	raceDecoded, err := decodeAll(raceInputs)
	if err != nil {
		return ledger{}, err
	}
	for _, evs := range decoded {
		l.events += int64(len(evs))
	}
	ev := float64(l.events)
	var parseNS, coreNS, raceNS, pipeNS, overlap []float64
	for rep := 0; rep < reps; rep++ {
		traceID, rootID := tr.id(), tr.id()
		rootStart := time.Now()
		child := func(name string, start time.Time, d time.Duration, events int64) {
			tr.add(traceID, tr.id(), rootID, name, start, start.Add(d), map[string]any{"events": events})
		}

		var perr error
		buf := make([]trace.Event, 4096)
		allocs, nbytes, start, d := measure(func() {
			for _, in := range inputs {
				rd := rapidio.NewReader(bytes.NewReader(in))
				for perr == nil {
					_, perr = rd.ReadBatch(buf)
				}
				if perr != io.EOF {
					return
				}
				perr = nil
			}
		})
		if perr != nil {
			return ledger{}, perr
		}
		child("rapidio.parse", start, d, l.events)
		parseNS = append(parseNS, float64(d.Nanoseconds())/ev)
		l.parseAllocs, l.parseBytes = float64(allocs)/ev, float64(nbytes)/ev

		var stats core.EngineStats
		var checked int64
		allocs, nbytes, start, d = measure(func() {
			for _, evs := range decoded {
				eng := core.New(algo)
				for _, e := range evs {
					if eng.Process(e) != nil {
						break
					}
				}
				checked += eng.Processed()
				if r, ok := eng.(core.StatsReporter); ok {
					stats.Add(r.Stats())
				}
			}
		})
		child("core.engine", start, d, checked)
		coreNS = append(coreNS, float64(d.Nanoseconds())/float64(checked))
		l.coreAllocs, l.coreBytes = float64(allocs)/float64(checked), float64(nbytes)/float64(checked)
		l.epochHitRate, l.endsFull, l.widthPromotions = stats.EpochHitRate(), stats.EndsFull, stats.WidthPromotions

		l.raceEvents = 0
		_, _, start, d = measure(func() {
			for _, evs := range raceDecoded {
				det := race.New()
				for _, e := range evs {
					if det.Process(e) != nil {
						break
					}
				}
				l.raceEvents += det.Processed()
			}
		})
		child("race.detect", start, d, l.raceEvents)
		raceNS = append(raceNS, float64(d.Nanoseconds())/float64(max(l.raceEvents, 1)))

		var busy time.Duration
		_, _, start, d = measure(func() {
			for _, in := range inputs {
				var st pipeline.StageStats
				_, _, err := pipeline.Run(core.New(algo), rapidio.NewReader(bytes.NewReader(in)), pipeline.Config{Stats: &st})
				if err != nil && perr == nil {
					perr = err
				}
				busy += st.ParseTime() + st.CheckTime()
			}
		})
		if perr != nil {
			return ledger{}, perr
		}
		child("pipeline.run", start, d, l.events)
		pipeNS = append(pipeNS, float64(d.Nanoseconds())/ev)
		overlap = append(overlap, float64(busy)/float64(d))

		tr.add(traceID, rootID, 0, "ledger", rootStart, time.Now(), map[string]any{"engine": engine, "rep": rep})
	}
	l.parseNS, l.coreNS, l.raceNS = median(parseNS), median(coreNS), median(raceNS)
	l.pipeNS, l.overlap = median(pipeNS), median(overlap)
	return l, nil
}

func decodeAll(inputs [][]byte) ([][]trace.Event, error) {
	out := make([][]trace.Event, len(inputs))
	for i, in := range inputs {
		evs, err := decode(in)
		if err != nil {
			return nil, err
		}
		out[i] = evs
	}
	return out, nil
}
