package aerodrome

import (
	"sync"

	"aerodrome/internal/trace"
)

// Monitor is a concurrency-safe front end for checking atomicity of a live
// Go program: goroutines register as threads, wrap intended-atomic regions
// in Begin/End, and report shared-variable and lock operations. Symbols are
// interned from arbitrary comparable keys (strings, pointers, …).
//
// All operations funnel through one mutex — the analysis itself is a
// sequential single-pass algorithm, exactly like the paper's trace
// analysis. The serialization order of the monitor defines the observed
// trace.
type Monitor struct {
	mu      sync.Mutex
	run     checkRun
	threads map[any]trace.ThreadID
	vars    map[any]trace.VarID
	locks   map[any]trace.LockID
	viol    *Violation
	onViol  func(*Violation)
}

// NewMonitor returns a Monitor running o over the observed event stream.
// Every analysis sees the same serialized trace and latches at its own
// first violation; Violation, Events and Snapshot report the atomicity
// analysis, and Analyses every analysis. onViolation, when non-nil, is
// called once, under the monitor lock, with the first atomicity
// violation. NewMonitor panics on invalid options (a programmer error).
func NewMonitor(o Options, onViolation func(*Violation)) *Monitor {
	run, err := newCheckRun(o)
	if err != nil {
		panic(err)
	}
	return &Monitor{
		run:     run,
		threads: map[any]trace.ThreadID{},
		vars:    map[any]trace.VarID{},
		locks:   map[any]trace.LockID{},
		onViol:  onViolation,
	}
}

// Thread registers (or looks up) a thread handle for the given key.
func (m *Monitor) Thread(key any) Thread {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Thread{m: m, id: m.internThread(key)}
}

func (m *Monitor) internThread(key any) trace.ThreadID {
	if id, ok := m.threads[key]; ok {
		return id
	}
	id := trace.ThreadID(len(m.threads))
	m.threads[key] = id
	return id
}

func (m *Monitor) internVar(key any) trace.VarID {
	if id, ok := m.vars[key]; ok {
		return id
	}
	id := trace.VarID(len(m.vars))
	m.vars[key] = id
	return id
}

func (m *Monitor) internLock(key any) trace.LockID {
	if id, ok := m.locks[key]; ok {
		return id
	}
	id := trace.LockID(len(m.locks))
	m.locks[key] = id
	return id
}

// Violation returns the first detected violation, if any.
func (m *Monitor) Violation() *Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viol
}

// Events returns the number of events observed so far.
func (m *Monitor) Events() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run.Engine.Processed()
}

// Snapshot returns the event count and the first violation in one
// consistent read — the introspection hook a serving front end polls
// between feeds (Events followed by Violation could straddle a concurrent
// event).
func (m *Monitor) Snapshot() (events int64, v *Violation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run.Engine.Processed(), m.viol
}

// Algorithm returns the name of the engine backing this monitor, as it
// appears in Report.Algorithm.
func (m *Monitor) Algorithm() string {
	return m.run.Engine.Name()
}

// Analyses returns a consistent per-analysis snapshot: each analysis'
// verdict so far and the events it has consumed. The atomicity entry
// matches Snapshot exactly. With the default analysis set this returns
// the single atomicity entry.
func (m *Monitor) Analyses() []AnalysisReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run.analyses(atomicityReport(m.viol, m.run.Engine.Processed(), m.run.Engine.Name()))
}

// Event feeds one explicit event, the hook for front ends that receive an
// already-encoded stream (a network session, a decoded trace log) rather
// than instrumenting live code. Identities are interned per key exactly
// like the handle-based API — the Event's integer Thread/Target are keys,
// not raw engine IDs, so an int key and a string key used elsewhere on the
// same monitor never collide, and fork/join targets intern as threads.
// Unknown kinds are ignored, mirroring Checker.Event.
func (m *Monitor) Event(e Event) *Violation {
	kind, ok := kindToInternal[e.Kind]
	if !ok {
		return m.Violation()
	}
	m.mu.Lock()
	t := m.internThread(e.Thread)
	var target int32
	switch e.Kind {
	case OpRead, OpWrite:
		target = int32(m.internVar(e.Target))
	case OpAcquire, OpRelease:
		target = int32(m.internLock(e.Target))
	case OpFork, OpJoin:
		target = int32(m.internThread(e.Target))
	}
	m.mu.Unlock()
	return m.process(trace.Event{Thread: t, Kind: kind, Target: target})
}

func (m *Monitor) process(e trace.Event) *Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	one := [1]trace.Event{e}
	m.run.Process(one[:])
	if m.viol == nil {
		m.viol = fromInternal(m.run.Engine.Violation())
		if m.viol != nil && m.onViol != nil {
			m.onViol(m.viol)
		}
	}
	return m.viol
}

// Thread is a per-thread handle on a Monitor. Handles are small values and
// may be copied freely; each method is safe for concurrent use with any
// other monitor operation.
type Thread struct {
	m  *Monitor
	id trace.ThreadID
}

// Begin enters an atomic block (blocks nest; only the outermost counts).
func (t Thread) Begin() *Violation {
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Begin})
}

// End leaves the innermost atomic block.
func (t Thread) End() *Violation {
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.End})
}

// Read reports a read of the shared variable identified by key.
func (t Thread) Read(key any) *Violation {
	t.m.mu.Lock()
	x := t.m.internVar(key)
	t.m.mu.Unlock()
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Read, Target: int32(x)})
}

// Write reports a write of the shared variable identified by key.
func (t Thread) Write(key any) *Violation {
	t.m.mu.Lock()
	x := t.m.internVar(key)
	t.m.mu.Unlock()
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Write, Target: int32(x)})
}

// Acquire reports acquisition of the lock identified by key.
func (t Thread) Acquire(key any) *Violation {
	t.m.mu.Lock()
	l := t.m.internLock(key)
	t.m.mu.Unlock()
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Acquire, Target: int32(l)})
}

// Release reports release of the lock identified by key.
func (t Thread) Release(key any) *Violation {
	t.m.mu.Lock()
	l := t.m.internLock(key)
	t.m.mu.Unlock()
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Release, Target: int32(l)})
}

// Fork reports creation of the child thread and returns its handle. The
// fork event must precede any event of the child.
func (t Thread) Fork(childKey any) (Thread, *Violation) {
	t.m.mu.Lock()
	child := t.m.internThread(childKey)
	t.m.mu.Unlock()
	v := t.m.process(trace.Event{Thread: t.id, Kind: trace.Fork, Target: int32(child)})
	return Thread{m: t.m, id: child}, v
}

// Join reports that t waited for child to finish; the child must perform no
// further events.
func (t Thread) Join(child Thread) *Violation {
	return t.m.process(trace.Event{Thread: t.id, Kind: trace.Join, Target: int32(child.id)})
}
