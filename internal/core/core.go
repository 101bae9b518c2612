// Package core implements AeroDrome, the single-pass linear-time vector
// clock algorithm for detecting violations of conflict serializability from
// "Atomicity Checking in Linear Time using Vector Clocks" (ASPLOS 2020).
//
// Three engines are provided, in increasing order of optimization:
//
//   - Basic: Algorithm 1 verbatim — one vector clock C_t and one begin clock
//     C⊲_t per thread, one clock L_ℓ per lock, and per variable a write
//     clock W_x plus one read clock R_{t,x} per thread. O(|Thr|·V) clocks.
//   - ReadOpt: Algorithm 2 (Appendix C.1) — the per-thread read clocks are
//     replaced by two clocks per variable, R_x = ⊔_u R_{u,x} and
//     ȒR_x = ⊔_u R_{u,x}[0/u]. O(V) clocks.
//   - Optimized: Algorithm 3 (Appendix C.2) — lazy write/read clock updates
//     (consulting the accessing thread's live clock while its transaction is
//     still running), per-thread update sets so that end events only touch
//     the variables that need it, and garbage collection of transactions
//     with no incoming edges.
//
// # Deviations from the printed pseudocode (paper errata)
//
// The differential test suite (differential_test.go) holds Basic to the
// reference oracle of internal/serial and the other engines to Basic. Three
// places where the printed pseudocode is followed literally would break
// that agreement; each is documented at the implementation site:
//
//  1. Algorithm 2's read handler prints "R_x := C_t" and "ȒR_x := C_t[0/t]".
//     Overwriting discards concurrent readers (reads do not absorb other
//     reads), losing conflicts that Algorithm 1 tracks; both assignments
//     must be joins, as Algorithm 3's own flush code confirms.
//  2. The checks against ȒR_x compare the begin clock's local component
//     (C⊲_t(t) ≤ ȒR_x(t)), not full vector ⊑. With a single reader u, ȒR_x
//     zeroes u's component, so full ⊑ spuriously fails whenever C⊲_t has a
//     nonzero u component even though C⊲_t ⊑ R_{u,x} holds. The component
//     comparison is exactly the ∃u≠t quantifier of Algorithm 1 under the
//     paper's local-time invariant (Appendix C.1).
//  3. Algorithm 3's hasIncomingEdge compares the begin and end clocks of
//     the ending transaction, which misses incoming program-order edges
//     from an earlier retained transaction of the same thread; a transaction
//     chain can route a cycle through a "clean" middle transaction (see
//     TestGCChainCounterexample). We use the sticky foreign-component test
//     C_t[0/t] ≠ ⊥ instead — the vector-clock analog of Velodrome's
//     cascading in-degree rule.
//
// Engines consume events one at a time (trace.Source-shaped streams) and
// never retain per-event state, so traces far larger than memory can be
// checked online, as in the paper.
package core

import (
	"fmt"

	"aerodrome/internal/trace"
)

// CheckKind identifies which of the algorithm's checks declared a violation.
type CheckKind uint8

const (
	// CheckRead fired at a r(x) event against the write clock W_x.
	CheckRead CheckKind = iota
	// CheckWriteWrite fired at a w(x) event against the write clock W_x.
	CheckWriteWrite
	// CheckWriteRead fired at a w(x) event against a read clock.
	CheckWriteRead
	// CheckAcquire fired at an acq(ℓ) event against the lock clock L_ℓ.
	CheckAcquire
	// CheckJoin fired at a join(u) event against C_u.
	CheckJoin
	// CheckEnd fired while processing an end event ⟨t,⊳⟩: another thread's
	// active transaction both depends on and is depended on by the ending
	// transaction.
	CheckEnd
)

var checkNames = map[CheckKind]string{
	CheckRead:       "read-after-write",
	CheckWriteWrite: "write-after-write",
	CheckWriteRead:  "write-after-read",
	CheckAcquire:    "acquire-after-release",
	CheckJoin:       "join",
	CheckEnd:        "transaction-end",
}

// String names the check for reports.
func (k CheckKind) String() string {
	if s, ok := checkNames[k]; ok {
		return s
	}
	return fmt.Sprintf("check(%d)", uint8(k))
}

// Violation reports a conflict-serializability violation. It implements
// error so engines can be used through error-returning facades.
type Violation struct {
	// Index is the 0-based position of the event at which the violation was
	// declared (the paper's algorithm exits at this event).
	Index int64
	// Event is the event being processed when the violation was declared.
	Event trace.Event
	// ActiveThread is the thread whose active transaction the check fired
	// for: the event's own thread for access checks, or the other thread
	// with an active transaction for CheckEnd.
	ActiveThread trace.ThreadID
	// Check identifies the rule that fired.
	Check CheckKind
	// Algorithm names the engine that found the violation.
	Algorithm string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s: conflict serializability violation at event %d (%s): %s check against thread t%d's active transaction",
		v.Algorithm, v.Index, v.Event, v.Check, v.ActiveThread)
}

// Engine is a streaming conflict-serializability checker. Implementations
// are not safe for concurrent use; shard or lock externally.
type Engine interface {
	// Name identifies the engine ("aerodrome-basic", "aerodrome-readopt",
	// "aerodrome-optimized", and — in internal/velodrome — "velodrome").
	Name() string
	// Process consumes the next trace event and reports a violation if the
	// algorithm declares one at this event. After the first violation the
	// engine latches: subsequent calls return the same violation without
	// processing (the paper's algorithm exits at the first violation).
	Process(e trace.Event) *Violation
	// Processed returns the number of events consumed (excluding calls after
	// a latched violation).
	Processed() int64
	// Violation returns the latched violation, if any.
	Violation() *Violation
}

// Run drains src through eng, stopping at the first violation. It returns
// the violation (nil if the trace is accepted) and the number of events
// consumed.
func Run(eng Engine, src trace.Source) (*Violation, int64) {
	for {
		e, ok := src.Next()
		if !ok {
			return eng.Violation(), eng.Processed()
		}
		if v := eng.Process(e); v != nil {
			return v, eng.Processed()
		}
	}
}

// Algorithm selects an AeroDrome engine variant.
type Algorithm int

const (
	// AlgoBasic is Algorithm 1.
	AlgoBasic Algorithm = iota
	// AlgoReadOpt is Algorithm 2 (read-clock reduction).
	AlgoReadOpt
	// AlgoOptimized is Algorithm 3 (lazy updates, update sets, GC) on flat
	// vector clocks.
	AlgoOptimized
)

// AlgoOptimizedAuto is AlgoOptimized.
//
// Deprecated: the width-adaptive engine it named is gone and "auto" runs
// Algorithm 3 on flat clocks. The constant stays because the benchmark
// module (benchmark/layers.go), which builds against this package and is
// changed only on its own, bounds its loop over the Algorithm 1-3 engines
// with it.
const AlgoOptimizedAuto = AlgoOptimized

// String names the variant.
func (a Algorithm) String() string {
	switch a {
	case AlgoBasic:
		return "aerodrome-basic"
	case AlgoReadOpt:
		return "aerodrome-readopt"
	case AlgoOptimized:
		return "aerodrome-optimized"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// New returns a fresh engine for the selected variant.
func New(a Algorithm) Engine {
	switch a {
	case AlgoBasic:
		return NewBasic()
	case AlgoReadOpt:
		return NewReadOpt()
	case AlgoOptimized:
		return NewOptimized()
	}
	panic("core: unknown algorithm")
}
