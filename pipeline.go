package aerodrome

import (
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

// FileError is the typed per-file error of a CheckFilesParallel run: it
// names the file and wraps the underlying failure (open failure, parse
// error), so batch callers — the CLI's -parallel mode, a service's batch
// endpoint — can both render the path and errors.Is/As into the cause.
type FileError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *FileError) Error() string { return e.Path + ": " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is and errors.As.
func (e *FileError) Unwrap() error { return e.Err }

// FileReport is the outcome of checking one file of a CheckFilesParallel
// run: the report, or the *FileError that prevented one.
type FileReport struct {
	Path   string
	Report *Report
	Err    error
}

// CheckFilesParallel runs Check on each of the given trace files
// concurrently, one independent engine (and one parse/check pipeline) per
// trace, using up to workers goroutines (GOMAXPROCS when ≤0), so each
// file's format is sniffed from its first bytes. Results are returned in
// input order regardless of completion order;
// per-file failures land in the corresponding FileReport as a *FileError
// rather than aborting the batch. The only call-level error is an unknown
// algorithm. Each file's verdict and violation index are identical to
// checking it alone with CheckSTD.
func CheckFilesParallel(paths []string, a Algorithm, workers int) ([]FileReport, error) {
	if _, err := engineFor(a); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	out := make([]FileReport, len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rep, err := checkFile(paths[i], a)
				if err != nil {
					err = &FileError{Path: paths[i], Err: err}
				}
				out[i] = FileReport{Path: paths[i], Report: rep, Err: err}
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, nil
}

// checkFile opens one trace file and runs Check over it.
func checkFile(path string, a Algorithm) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, _, err := Check(f, Options{Algorithm: a})
	return rep, err
}

// IncrementalChecker checks a trace that arrives in byte chunks — the
// engine behind one aerodromed session, and the library hook for any
// front end that receives a trace stream over a wire rather than from a
// file. The format (STD text or ADB1 binary) is sniffed from the first
// bytes, exactly like the one-shot /v1/check endpoint, and chunk
// boundaries need not align with line or record boundaries. Parsing runs
// on the caller's goroutine: a session is latency-bound, not
// throughput-bound, and a synchronous Feed means the answer to a chunk
// already reflects every event in it. It is not safe for concurrent use;
// callers serialize (the chunk order defines the trace).
type IncrementalChecker struct {
	run    checkRun
	dec    *rapidio.Decoder
	batch  []trace.Event
	stages pipeline.StageStats
	err    error      // the latched terminal parse error (never io.EOF)
	viol   *Violation // the engine's violation, converted once
}

// NewIncrementalChecker returns an incremental checker running o. Every
// analysis consumes the same chunk stream from one parse, each latching at
// its own first violation; the atomicity verdict (and the Violation and
// Processed surface) is that of a checker running atomicity alone. The
// stream keeps being parsed until every requested analysis has latched,
// so a chunk fed after the atomicity violation can still advance the race
// analysis.
func NewIncrementalChecker(o Options) (*IncrementalChecker, error) {
	run, err := newCheckRun(o)
	if err != nil {
		return nil, err
	}
	return &IncrementalChecker{run: run, dec: rapidio.NewFeeder(), batch: make([]trace.Event, 4096)}, nil
}

// AnalysisSet returns the checker's effective analysis set: o.Analyses
// validated and deduplicated, ["atomicity"] when empty.
func (c *IncrementalChecker) AnalysisSet() []AnalysisKind {
	out := make([]AnalysisKind, len(c.run.set))
	copy(out, c.run.set)
	return out
}

// Analyses returns a point-in-time per-analysis view: verdict so far,
// events consumed so far. The atomicity entry matches Violation and
// Processed exactly.
func (c *IncrementalChecker) Analyses() []AnalysisReport {
	return c.run.analyses(atomicityReport(c.Violation(), c.Processed(), c.Algorithm()))
}

// Feed appends one chunk of the stream and processes every event whose
// line (or binary record) is now complete. It returns the latched
// violation, if any, and the terminal parse error if the stream is
// malformed. Once every analysis has latched, further chunks are accepted
// and discarded unparsed — the verdict, violation index and event count
// equal running CheckSTD over the concatenated chunks, so a parse error
// after that point is never reported. Feeding after a parse error returns
// the same outcome.
func (c *IncrementalChecker) Feed(chunk []byte) (*Violation, error) {
	c.dec.Feed(chunk)
	c.drain()
	return c.Violation(), c.err
}

// drain checks every event the decoder has completed, stopping once every
// analysis has latched or at a terminal parse error. Either ends the
// decoder's stream, so a later Feed is a no-op and a later drain returns
// at once.
func (c *IncrementalChecker) drain() {
	for {
		parseStart := time.Now()
		n, err := c.dec.ReadBatch(c.batch)
		checkStart := time.Now()
		c.stages.ParseNanos.Add(int64(checkStart.Sub(parseStart)))
		done := c.run.Process(c.batch[:n])
		c.stages.CheckNanos.Add(int64(time.Since(checkStart)))
		switch {
		case done:
			// The rest of the stream is discarded by definition; free the
			// unconsumed tail rather than pinning it for the session's
			// remaining lifetime.
			c.dec.Discard()
			return
		case err == io.EOF || (err == nil && n < len(c.batch)):
			return
		case err != nil:
			c.err = err
			return
		}
	}
}

// Close marks the end of the stream (parsing a final unterminated line)
// and returns the final Report. The error is the terminal parse error, if
// any. Close is idempotent.
func (c *IncrementalChecker) Close() (*Report, error) {
	c.dec.Close()
	c.drain()
	if c.err != nil {
		return nil, c.err
	}
	return c.run.report(c.Violation(), c.Processed()), nil
}

// Violation returns the latched violation, if any.
func (c *IncrementalChecker) Violation() *Violation {
	if c.viol == nil {
		c.viol = fromInternal(c.run.Engine.Violation())
	}
	return c.viol
}

// Done reports that every requested analysis has latched a violation, so
// further chunks cannot change any verdict. With the default analysis set
// this is simply "a violation latched"; with extra analyses it requires
// each of them to have latched too.
func (c *IncrementalChecker) Done() bool { return c.run.Done() }

// Processed returns the number of events consumed so far.
func (c *IncrementalChecker) Processed() int64 { return c.run.Engine.Processed() }

// Algorithm returns the name of the engine backing this checker.
func (c *IncrementalChecker) Algorithm() string { return c.run.Engine.Name() }
