// Package pipeline decouples trace parsing from checking: a producer
// goroutine fills pooled event batches from a BatchSource (a rapidio
// decoder) and hands them through a bounded channel to the checker, which
// runs on the caller's goroutine. The paper's algorithm is single-pass
// with constant per-event state, so the only coupling between the two
// stages is the event stream itself — exactly the shape that pipelines.
//
// Design points:
//
//   - Bounded depth: the channel holds at most Depth batches, so a fast
//     parser cannot run away from a slow checker (backpressure) and memory
//     stays O(Depth·BatchSize) regardless of trace size.
//   - Zero steady-state allocations: at most Depth batch buffers exist,
//     each allocated on first use and then recycled through a free list;
//     after warm-up the pipeline itself allocates nothing per event, and a
//     trace that fits in one batch pays for one buffer.
//   - Early exit: once the checker has latched at its first violation, and
//     every extra analysis sink at its own, the consumer signals the
//     producer via the stop channel and drains; the producer never blocks
//     forever on a full channel.
//   - Observational equivalence: verdict, violation index and event count
//     are identical to running the same engine over the same stream
//     sequentially. In particular a parse error positioned after the first
//     violation is not reported — the sequential checker would have
//     stopped reading before reaching it. The differential suite at the
//     repository root enforces this against the golden corpus and the
//     fuzz seeds.
package pipeline

import (
	"io"
	"sync/atomic"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/trace"
)

// BatchSource produces events in bulk: ReadBatch fills dst with up to
// len(dst) events, returning how many were filled and the terminal error
// if the stream ended inside this batch (io.EOF for a clean end).
// rapidio.Decoder implements it.
type BatchSource interface {
	ReadBatch(dst []trace.Event) (int, error)
}

// StageStats accumulates where a pipelined check spends its wall time,
// split by stage: ParseNanos is time inside the source's ReadBatch
// (tokenization), CheckNanos is time inside the engine's Process loop
// (vector-clock work). The two stages run on different goroutines in Run,
// so the counters are atomic and their sum can exceed the elapsed wall
// time — they answer "which stage is the bottleneck", not "how long did
// the call take".
type StageStats struct {
	ParseNanos atomic.Int64
	CheckNanos atomic.Int64
}

// ParseTime returns the accumulated parse-stage time.
func (s *StageStats) ParseTime() time.Duration { return time.Duration(s.ParseNanos.Load()) }

// CheckTime returns the accumulated check-stage time.
func (s *StageStats) CheckTime() time.Duration { return time.Duration(s.CheckNanos.Load()) }

// Config tunes the pipeline. The zero value selects the defaults.
type Config struct {
	// BatchSize is the number of events per batch (default 4096): large
	// enough to amortize the channel handoff to well under a nanosecond
	// per event, small enough to keep the violation-latch latency low.
	BatchSize int
	// Depth is the number of in-flight batches (default 4): the producer
	// parses at most Depth·BatchSize events ahead of the checker.
	Depth int
	// Stats, when non-nil, accumulates per-stage timings. The pointer may
	// be shared across runs (a server aggregating over requests).
	Stats *StageStats
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	return c
}

// Sink is one analysis, such as the happens-before race detector,
// consuming the shared event stream beside the primary engine. Process
// feeds the next event; Done reports that the analysis has latched a
// verdict and no longer needs events. Implementations must tolerate
// Process calls after Done (the batch granularity of the pipeline can
// overshoot by a few events) by ignoring them, exactly like a latched
// core.Engine.
type Sink interface {
	Process(e trace.Event)
	Done() bool
}

// allDone reports whether every extra sink has latched.
func allDone(sinks []Sink) bool {
	for _, s := range sinks {
		if !s.Done() {
			return false
		}
	}
	return true
}

// Run drives eng over src with parsing pipelined on a separate goroutine.
// It returns the violation (nil if the trace is accepted), the number of
// events consumed, and the parse error that ended the stream, if any.
// When a violation is found, any later parse error is discarded: the
// sequential checker stops reading at the violation, and Run is defined
// to be observationally identical to it.
func Run(eng core.Engine, src BatchSource, cfg Config) (*core.Violation, int64, error) {
	return RunMulti(eng, nil, src, cfg)
}

// RunMulti is Run with extra analysis sinks sharing the parsed stream: one
// parse, N verdicts. The primary engine's verdict, violation index and
// event count are those of Run on the same input, because the engine
// latches at its first violation and stops counting. Each sink sees every
// event from the start of the stream up to its own latch point, so sink
// violation indices are global trace indices. Parsing stops early only
// when the engine has latched AND every sink is done. A parse error is
// reported only if some analysis was still live when it was reached; once
// all have latched, the rest of the stream is discarded unread.
func RunMulti(eng core.Engine, extra []Sink, src BatchSource, cfg Config) (*core.Violation, int64, error) {
	cfg = cfg.withDefaults()

	full := make(chan []trace.Event, cfg.Depth)
	free := make(chan []trace.Event, cfg.Depth)
	stop := make(chan struct{})
	for i := 0; i < cfg.Depth; i++ {
		free <- nil // allocated by the producer on first use
	}

	// The producer writes srcErr before closing full; the close ordering
	// makes the write visible to the consumer without further locking.
	var srcErr error
	go func() {
		defer close(full)
		for {
			var buf []trace.Event
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			if buf == nil {
				buf = make([]trace.Event, cfg.BatchSize)
			}
			var parseStart time.Time
			if cfg.Stats != nil {
				parseStart = time.Now()
			}
			n, err := src.ReadBatch(buf)
			if cfg.Stats != nil {
				cfg.Stats.ParseNanos.Add(int64(time.Since(parseStart)))
			}
			if n > 0 {
				select {
				case full <- buf[:n]:
				case <-stop:
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					srcErr = err
				}
				return
			}
		}
	}()

	var viol *core.Violation
	done := false // the engine and every sink have latched
	for evs := range full {
		if !done {
			var checkStart time.Time
			if cfg.Stats != nil {
				checkStart = time.Now()
			}
			for _, e := range evs {
				if viol == nil {
					viol = eng.Process(e)
				}
				for _, s := range extra {
					if !s.Done() {
						s.Process(e)
					}
				}
				if viol != nil && allDone(extra) {
					done = true
					break
				}
			}
			if cfg.Stats != nil {
				cfg.Stats.CheckNanos.Add(int64(time.Since(checkStart)))
			}
			if done {
				close(stop) // unblock the producer; keep draining full
			}
		}
		free <- evs[:cap(evs)]
	}
	if done {
		// Any later parse error sits in the discarded tail.
		return viol, eng.Processed(), nil
	}
	if viol == nil {
		viol = eng.Violation()
	}
	return viol, eng.Processed(), srcErr
}
