package aerodrome

import (
	"fmt"
	"io"

	"aerodrome/internal/core"
	"aerodrome/internal/doublechecker"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
)

// Algorithm selects a checking algorithm.
type Algorithm string

const (
	// Basic is AeroDrome Algorithm 1 (per-thread read clocks).
	Basic Algorithm = "basic"
	// ReadOpt is AeroDrome Algorithm 2 (O(V) read clocks).
	ReadOpt Algorithm = "readopt"
	// Optimized is AeroDrome Algorithm 3 (lazy updates, update sets,
	// transaction garbage collection) — the paper's evaluated configuration
	// and the recommended default. The names "auto", "hybrid" and
	// "treeclock", which once chose other clock representations, are
	// accepted as aliases of it and report the same engine.
	Optimized Algorithm = "optimized"
	// Velodrome is the transaction-graph baseline with per-edge DFS cycle
	// checks.
	Velodrome Algorithm = "velodrome"
	// VelodromePK is Velodrome with a Pearce–Kelly dynamic topological
	// order instead of per-edge DFS (ablation).
	VelodromePK Algorithm = "velodrome-pk"
	// DoubleChecker is the two-phase coarse-then-precise analysis.
	DoubleChecker Algorithm = "doublechecker"
)

// Algorithms lists the supported algorithms, one name per engine.
func Algorithms() []Algorithm {
	return []Algorithm{Basic, ReadOpt, Optimized, Velodrome, VelodromePK, DoubleChecker}
}

// engines maps every accepted algorithm name to its engine's constructor.
// The empty name and "auto", "hybrid" and "treeclock" select Optimized.
var engines = map[Algorithm]func() core.Engine{
	Basic:         func() core.Engine { return core.NewBasic() },
	ReadOpt:       func() core.Engine { return core.NewReadOpt() },
	Optimized:     newOptimized,
	"":            newOptimized,
	"auto":        newOptimized,
	"hybrid":      newOptimized,
	"treeclock":   newOptimized,
	Velodrome:     func() core.Engine { return velodrome.New() },
	VelodromePK:   func() core.Engine { return velodrome.New(velodrome.WithStrategy("pearce-kelly")) },
	DoubleChecker: func() core.Engine { return doublechecker.New(0) },
}

func newOptimized() core.Engine { return core.NewOptimized() }

// engineFor returns the constructor of the engine a names.
func engineFor(a Algorithm) (func() core.Engine, error) {
	if mk, ok := engines[a]; ok {
		return mk, nil
	}
	return nil, fmt.Errorf("aerodrome: unknown algorithm %q", a)
}

// Options selects what a check runs. The zero value runs Optimized with
// the atomicity analysis alone.
type Options struct {
	// Algorithm is the atomicity engine (Optimized when empty).
	Algorithm Algorithm
	// Analyses is the analysis set run over the one parsed stream. Empty
	// means just AnalysisAtomicity, whose report carries no Analyses
	// entries and is byte-identical to a single-analysis check.
	Analyses []AnalysisKind
}

// Validate reports the first unknown name in o: an analysis, then the
// algorithm.
func (o Options) Validate() error {
	if _, err := normalizeAnalyses(o.Analyses); err != nil {
		return err
	}
	_, err := engineFor(o.Algorithm)
	return err
}

// EventKind enumerates trace operations in the public API.
type EventKind uint8

const (
	// TxBegin is the start of an atomic block (the paper's ⊲).
	TxBegin EventKind = iota
	// TxEnd is the end of an atomic block (⊳).
	TxEnd
	// OpRead is a read of a shared variable.
	OpRead
	// OpWrite is a write of a shared variable.
	OpWrite
	// OpAcquire is a lock acquisition.
	OpAcquire
	// OpRelease is a lock release.
	OpRelease
	// OpFork is creation of another thread.
	OpFork
	// OpJoin waits for another thread to finish.
	OpJoin
)

var kindToInternal = map[EventKind]trace.OpKind{
	TxBegin: trace.Begin, TxEnd: trace.End,
	OpRead: trace.Read, OpWrite: trace.Write,
	OpAcquire: trace.Acquire, OpRelease: trace.Release,
	OpFork: trace.Fork, OpJoin: trace.Join,
}

// Event is a trace event in the public API. Thread, and Target where
// applicable, are dense non-negative integer IDs: Target names a variable
// for reads/writes, a lock for acquire/release, and a thread for fork/join.
type Event struct {
	Thread int
	Kind   EventKind
	Target int
}

// Violation reports a detected conflict-serializability (atomicity)
// violation. It implements error. The JSON field names are the wire
// format of the aerodromed service.
type Violation struct {
	// EventIndex is the 0-based position of the event at which the
	// violation was declared.
	EventIndex int64 `json:"event_index"`
	// Thread is the thread whose active transaction cannot be serialized.
	Thread int `json:"thread"`
	// Check names the algorithm rule that fired (e.g. "read-after-write").
	Check string `json:"check"`
	// Algorithm names the engine that reported.
	Algorithm string `json:"algorithm"`
	// Target, for a data-race violation (the hbrace analysis), is the
	// variable both racing accesses touch. Atomicity violations leave it
	// nil, so the legacy atomicity wire format is unchanged.
	Target *int `json:"target,omitempty"`
	// OtherThread, for a data-race violation, is the thread of the earlier
	// access of the racing pair (Thread is the later one). Nil for
	// atomicity violations.
	OtherThread *int `json:"other_thread,omitempty"`
}

// Error implements error.
func (v *Violation) Error() string {
	if v.Target != nil && v.OtherThread != nil {
		return fmt.Sprintf("%s: data race at event %d (%s on x%d, thread %d vs thread %d)",
			v.Algorithm, v.EventIndex, v.Check, *v.Target, v.Thread, *v.OtherThread)
	}
	return fmt.Sprintf("%s: conflict serializability violation at event %d (%s check, thread %d)",
		v.Algorithm, v.EventIndex, v.Check, v.Thread)
}

func fromInternal(v *core.Violation) *Violation {
	if v == nil {
		return nil
	}
	return &Violation{
		EventIndex: v.Index,
		Thread:     int(v.ActiveThread),
		Check:      v.Check.String(),
		Algorithm:  v.Algorithm,
	}
}

// Checker is a streaming conflict-serializability checker over explicit
// events. It is not safe for concurrent use; see Monitor for a synchronized
// front end.
type Checker struct {
	eng  core.Engine
	viol *Violation
}

// NewChecker returns a checker using the given algorithm (Optimized when
// empty). It panics on an unknown algorithm name; Options.Validate checks
// user input first.
func NewChecker(a Algorithm) *Checker {
	mk, err := engineFor(a)
	if err != nil {
		panic(err)
	}
	return &Checker{eng: mk()}
}

// Event feeds one event and returns the violation declared at it, if any.
// After the first violation the checker latches and keeps returning it.
func (c *Checker) Event(e Event) *Violation {
	kind, ok := kindToInternal[e.Kind]
	if !ok {
		return c.viol
	}
	v := c.eng.Process(trace.Event{
		Thread: trace.ThreadID(e.Thread),
		Kind:   kind,
		Target: int32(e.Target),
	})
	if v != nil && c.viol == nil {
		c.viol = fromInternal(v)
	}
	return c.viol
}

// Begin, End, Read, Write, Acquire, Release, Fork and Join are convenience
// wrappers over Event.
func (c *Checker) Begin(thread int) *Violation { return c.Event(Event{Thread: thread, Kind: TxBegin}) }

// End closes thread's innermost atomic block.
func (c *Checker) End(thread int) *Violation { return c.Event(Event{Thread: thread, Kind: TxEnd}) }

// Read reports a read of variable x by thread.
func (c *Checker) Read(thread, x int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpRead, Target: x})
}

// Write reports a write of variable x by thread.
func (c *Checker) Write(thread, x int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpWrite, Target: x})
}

// Acquire reports acquisition of lock l by thread.
func (c *Checker) Acquire(thread, l int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpAcquire, Target: l})
}

// Release reports release of lock l by thread.
func (c *Checker) Release(thread, l int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpRelease, Target: l})
}

// Fork reports that thread created child.
func (c *Checker) Fork(thread, child int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpFork, Target: child})
}

// Join reports that thread joined child.
func (c *Checker) Join(thread, child int) *Violation {
	return c.Event(Event{Thread: thread, Kind: OpJoin, Target: child})
}

// Violation returns the latched violation, if any.
func (c *Checker) Violation() *Violation { return c.viol }

// Processed returns the number of events consumed.
func (c *Checker) Processed() int64 { return c.eng.Processed() }

// Algorithm returns the name of the engine backing this checker (e.g.
// "aerodrome-optimized"), as it appears in Report.Algorithm.
func (c *Checker) Algorithm() string { return c.eng.Name() }

// Report is the outcome of checking a whole trace. The JSON field names
// are the wire format of the aerodromed service.
type Report struct {
	// Serializable is true iff no violation was found.
	Serializable bool `json:"serializable"`
	// Violation is non-nil iff not serializable.
	Violation *Violation `json:"violation,omitempty"`
	// Events is the number of events consumed (analysis stops at the first
	// violation, as in the paper).
	Events int64 `json:"events"`
	// Algorithm names the engine used.
	Algorithm string `json:"algorithm"`
	// Analyses carries per-analysis verdicts when the check ran a
	// non-default analysis set (see Options.Analyses); it is omitted — and
	// the report is byte-identical to the single-analysis wire format —
	// when only atomicity was requested. The atomicity entry, when
	// present, mirrors the top-level fields exactly.
	Analyses []AnalysisReport `json:"analyses,omitempty"`
}

// Check checks one whole trace and returns its report and where the
// check spent its time. The format is sniffed once: a stream whose first
// four bytes are the ADB1 magic is read as compact binary, anything else
// as STD text, so an STD trace that begins with the four bytes "ADB1" is
// read as binary. An error from r other than io.EOF is returned as
// itself (errors.Is finds it), after the events of the lines or records
// completed before it. Parsing runs on its own goroutine, pipelined
// against checking (internal/pipeline), and the verdict, violation index
// and event count equal CheckSTD's on the same trace. Invalid options are
// rejected before any byte is read.
func Check(r io.Reader, o Options) (*Report, CheckStats, error) {
	run, err := newCheckRun(o)
	if err != nil {
		return nil, CheckStats{}, err
	}
	var stages pipeline.StageStats
	v, n, err := pipeline.RunMulti(run.eng, run.sinks(), rapidio.NewDecoder(r), pipeline.Config{Stats: &stages})
	if err != nil {
		return nil, CheckStats{}, err
	}
	cs := CheckStats{ParseTime: stages.ParseTime(), CheckTime: stages.CheckTime()}
	cs.Engine, cs.HasEngineStats = engineStatsOf(run.eng)
	return run.report(fromInternal(v), n), cs, nil
}

// CheckSTD checks a trace log in the RAPID STD text format
// ("thread|op(target)|loc" lines) on the calling goroutine, one event at a
// time: the sequential reference the pipelined paths are tested against.
// Each analysis stops at its own first violation, and reading stops once
// every analysis has, so a parse error after that point is not reported.
func CheckSTD(r io.Reader, o Options) (*Report, error) {
	run, err := newCheckRun(o)
	if err != nil {
		return nil, err
	}
	v, n, err := runSequential(run, rapidio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return run.report(fromInternal(v), n), nil
}

// CheckEvents analyzes a slice of events.
func CheckEvents(events []Event, a Algorithm) (*Report, error) {
	mk, err := engineFor(a)
	if err != nil {
		return nil, err
	}
	eng := mk()
	var v *core.Violation
	var n int64
	for _, e := range events {
		kind, ok := kindToInternal[e.Kind]
		if !ok {
			return nil, fmt.Errorf("aerodrome: unknown event kind %d", e.Kind)
		}
		n++
		if v = eng.Process(trace.Event{
			Thread: trace.ThreadID(e.Thread), Kind: kind, Target: int32(e.Target),
		}); v != nil {
			break
		}
	}
	return &Report{
		Serializable: v == nil,
		Violation:    fromInternal(v),
		Events:       n,
		Algorithm:    eng.Name(),
	}, nil
}
