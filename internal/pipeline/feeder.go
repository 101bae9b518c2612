package pipeline

// Feeder is the resumable counterpart of Run, for STD streams that arrive
// in pieces rather than behind an io.Reader: the aerodromed session API
// feeds each request body as one chunk and reads the verdict back between
// chunks. Parsing runs the pull pipeline's rapidio decoder, pushed to
// instead of pulling, into one batch refilled by its window sweeps, but on
// the caller's goroutine — an incremental session is latency-bound, not
// throughput-bound, and a synchronous Feed means the response to a chunk
// already reflects every event in it.

import (
	"io"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

// Feeder drives an engine incrementally from byte chunks of a trace log —
// STD text or the compact ADB1 binary format, sniffed from the first bytes
// exactly like the one-shot endpoints. It is observationally identical to
// running the engine over the concatenated chunks with the sequential
// checker: same verdict, same violation index, same event count. In particular, once a violation is
// latched, later chunks are accepted and discarded without parsing — the
// sequential checker would have stopped reading — so a parse error
// positioned after the violation is never reported.
type Feeder struct {
	eng   core.Engine
	extra []Sink // additional analyses sharing the parsed stream
	src   *rapidio.Decoder
	batch []trace.Event
	stats *StageStats
	viol  *core.Violation
	err   error // terminal parse error (never io.EOF)
}

// NewFeeder returns a Feeder over eng and the extra analysis sinks sharing
// the parsed stream (nil for none), following the RunMulti contract: the
// engine's verdict, violation index and event count are unaffected by the
// sinks, each sink sees every event up to its own latch, and the stream
// keeps flowing (and parse errors keep being reported) until every
// analysis is done. cfg follows the Run defaults; only BatchSize and
// Stats apply (there is no producer goroutine to bound).
func NewFeeder(eng core.Engine, extra []Sink, cfg Config) *Feeder {
	cfg = cfg.withDefaults()
	return &Feeder{
		eng:   eng,
		extra: extra,
		src:   rapidio.NewFeeder(),
		batch: make([]trace.Event, cfg.BatchSize),
		stats: cfg.Stats,
	}
}

// done reports that every analysis — the engine and all extra sinks — has
// latched, so the rest of the stream is discardable.
func (f *Feeder) done() bool { return f.viol != nil && allDone(f.extra) }

// Done reports that every analysis has latched: the engine found its
// violation and every extra sink is done, so further chunks are discarded
// without parsing. A serving front end uses this (not Violation alone) to
// decide when a multi-analysis stream has nothing left to learn.
func (f *Feeder) Done() bool { return f.done() }

// Feed appends one chunk of the stream (chunk boundaries need not align
// with line or record boundaries) and processes every event whose line or
// record is now complete. It returns the latched violation, if any, and the terminal
// parse error, if the stream just turned out to be malformed. Feeding
// after either is terminal is a no-op returning the same outcome.
func (f *Feeder) Feed(chunk []byte) (*core.Violation, error) {
	if f.done() || f.err != nil {
		return f.viol, f.err
	}
	f.src.Feed(chunk)
	return f.drain()
}

// drain processes every completed event buffered in the parser, stopping
// at a violation or terminal parse error.
func (f *Feeder) drain() (*core.Violation, error) {
	for {
		var parseStart time.Time
		if f.stats != nil {
			parseStart = time.Now()
		}
		n, err := f.src.ReadBatch(f.batch)
		var checkStart time.Time
		if f.stats != nil {
			checkStart = time.Now()
			f.stats.ParseNanos.Add(int64(checkStart.Sub(parseStart)))
		}
		for _, e := range f.batch[:n] {
			if f.viol == nil {
				f.viol = f.eng.Process(e)
			}
			for _, s := range f.extra {
				if !s.Done() {
					s.Process(e)
				}
			}
			if f.done() {
				if f.stats != nil {
					f.stats.CheckNanos.Add(int64(time.Since(checkStart)))
				}
				// The rest of the stream is discarded by definition; free
				// the unconsumed tail rather than pinning it for the
				// session's remaining lifetime.
				f.src.Discard()
				return f.viol, nil
			}
		}
		if f.stats != nil {
			f.stats.CheckNanos.Add(int64(time.Since(checkStart)))
		}
		if err == io.EOF || (err == nil && n < len(f.batch)) {
			return f.viol, nil
		}
		if err != nil {
			f.err = err
			return f.viol, err
		}
	}
}

// Close marks the end of the stream (a final unterminated line is parsed)
// and returns the verdict: the violation (nil if the stream is accepted),
// the number of events consumed, and the terminal parse error, if any.
// Close is idempotent.
func (f *Feeder) Close() (*core.Violation, int64, error) {
	if !f.done() && f.err == nil {
		f.src.Close()
		f.drain()
	}
	return f.viol, f.eng.Processed(), f.err
}

// Violation returns the latched violation, if any.
func (f *Feeder) Violation() *core.Violation { return f.viol }

// Processed returns the number of events consumed so far.
func (f *Feeder) Processed() int64 { return f.eng.Processed() }

// Err returns the latched terminal parse error, if any.
func (f *Feeder) Err() error { return f.err }

// EngineStats returns the backing engine's introspection counters, when
// the engine reports them (the Algorithm 3 family; ok is false otherwise).
func (f *Feeder) EngineStats() (core.EngineStats, bool) {
	if r, ok := f.eng.(core.StatsReporter); ok {
		return r.Stats(), true
	}
	return core.EngineStats{}, false
}
