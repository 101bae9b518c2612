// Package testutil provides shared fixtures for the test suites: the
// paper's worked example traces (ρ1–ρ4 of Figures 1–4) and a seeded random
// generator of well-formed traces, including fork/join structure, used for
// differential testing of the checkers.
package testutil

import (
	"math/rand"

	"aerodrome/internal/trace"
)

// Rho1 returns the trace of Figure 1 (ρ1): three transactions with
// T3 ⋖Txn T1 ⋖Txn T2; conflict serializable.
func Rho1() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2, t3 := b.Thread("t1"), b.Thread("t2"), b.Thread("t3")
	x, z := b.Var("x"), b.Var("z")
	b.Begin(t1). // e1
			Write(t1, x). // e2
			Begin(t2).    // e3
			Read(t2, x).  // e4
			End(t2).      // e5
			Begin(t3).    // e6
			Write(t3, z). // e7
			End(t3).      // e8
			Read(t1, z).  // e9
			End(t1)       // e10
	return b.Build()
}

// Rho2 returns the trace of Figure 2 (ρ2): a violation witnessed by a ≤CHB
// path that starts and ends in transaction T1. AeroDrome reports at e6.
func Rho2() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x, y := b.Var("x"), b.Var("y")
	b.Begin(t1). // e1
			Begin(t2).    // e2
			Write(t1, x). // e3
			Read(t2, x).  // e4
			Write(t2, y). // e5
			Read(t1, y).  // e6
			End(t1).      // e7
			End(t2)       // e8
	return b.Build()
}

// Rho3 returns the trace of Figure 3 (ρ3): a violation with no ≤CHB path
// that starts and ends in the same transaction. AeroDrome reports at the
// end event e7.
func Rho3() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x, y := b.Var("x"), b.Var("y")
	b.Begin(t1). // e1
			Begin(t2).    // e2
			Write(t1, x). // e3
			Write(t2, y). // e4
			Read(t1, y).  // e5
			Read(t2, x).  // e6
			End(t1).      // e7
			End(t2)       // e8
	return b.Build()
}

// Rho4 returns the trace of Figure 4 (ρ4): each transaction is a ⋖Txn
// predecessor of the other, discovered only via the third transaction.
// AeroDrome reports at e11.
func Rho4() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2, t3 := b.Thread("t1"), b.Thread("t2"), b.Thread("t3")
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	b.Begin(t1). // e1
			Write(t1, x). // e2
			Begin(t2).    // e3
			Write(t2, y). // e4
			Read(t2, x).  // e5
			End(t2).      // e6
			Begin(t3).    // e7
			Read(t3, y).  // e8
			Write(t3, z). // e9
			End(t3).      // e10
			Read(t1, z).  // e11
			End(t1)       // e12
	return b.Build()
}

// GenOpts controls RandomTrace.
type GenOpts struct {
	Threads int // number of threads (≥1); thread 0 starts alive, others are forked
	Vars    int
	Locks   int
	Steps   int  // scheduling steps (≈ events, excluding closing events)
	NoFork  bool // disable fork/join structure (all threads start alive)
	// TxnBias, when positive, increases the share of begin events so that
	// most events land inside transactions.
	TxnBias int
	// LockBias, when positive, funnels extra probability into lock
	// acquire/release operations: the lock-heavy shapes whose dense
	// release-acquire entanglement widens every thread clock.
	LockBias int
	// MaxHeldLocks bounds how many locks a thread holds at once. Values
	// above 1 produce properly nested critical sections (locks release in
	// LIFO order); 0 keeps the historical single-lock discipline.
	MaxHeldLocks int
}

type genThread struct {
	id       trace.ThreadID
	alive    bool
	finished bool
	joined   bool
	depth    int
	locks    []trace.LockID // held locks, acquisition order (released LIFO)
}

// RandomTrace generates a well-formed trace: matched begins/ends, matched
// acquires/releases with mutual exclusion, forks before first child events,
// joins after last child events, all transactions completed. The result is
// strictly validated before being returned.
func RandomTrace(r *rand.Rand, o GenOpts) *trace.Trace {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.Vars < 1 {
		o.Vars = 1
	}
	if o.Locks < 1 {
		o.Locks = 1
	}
	b := trace.NewBuilder()
	threads := make([]*genThread, o.Threads)
	for i := range threads {
		id := b.Thread("t" + string(rune('0'+i%10)) + suffix(i))
		threads[i] = &genThread{id: id}
	}
	vars := make([]trace.VarID, o.Vars)
	for i := range vars {
		vars[i] = b.Var("x" + suffix(i))
	}
	locks := make([]trace.LockID, o.Locks)
	for i := range locks {
		locks[i] = b.Lock("l" + suffix(i))
	}
	lockBusy := make([]bool, o.Locks)
	maxHeld := o.MaxHeldLocks
	if maxHeld < 1 {
		maxHeld = 1
	}

	threads[0].alive = true
	if o.NoFork {
		for _, th := range threads {
			th.alive = true
		}
	}

	aliveThreads := func() []*genThread {
		var out []*genThread
		for _, th := range threads {
			if th.alive && !th.finished {
				out = append(out, th)
			}
		}
		return out
	}

	for step := 0; step < o.Steps; step++ {
		alive := aliveThreads()
		if len(alive) == 0 {
			break
		}
		th := alive[r.Intn(len(alive))]
		t := th.id
		choice := r.Intn(12 + o.TxnBias + 2*o.LockBias)
		switch {
		case choice >= 12+o.TxnBias:
			// LockBias mass alternates between acquire and release.
			if (choice-12-o.TxnBias)%2 == 0 {
				choice = 8
			} else {
				choice = 9
			}
		case choice >= 12:
			choice = 0 // TxnBias funnels extra probability into begin
		}
		switch choice {
		case 0: // begin
			b.Begin(t)
			th.depth++
		case 1: // end
			if th.depth > 0 {
				b.End(t)
				th.depth--
			} else {
				b.Read(t, vars[r.Intn(o.Vars)])
			}
		case 2, 3, 4: // read
			b.Read(t, vars[r.Intn(o.Vars)])
		case 5, 6, 7: // write
			b.Write(t, vars[r.Intn(o.Vars)])
		case 8: // acquire (nested critical sections up to MaxHeldLocks)
			if len(th.locks) < maxHeld {
				li := r.Intn(o.Locks)
				if !lockBusy[li] {
					b.Acquire(t, locks[li])
					th.locks = append(th.locks, locks[li])
					lockBusy[li] = true
				}
			}
		case 9: // release (LIFO: innermost critical section first)
			if n := len(th.locks); n > 0 {
				l := th.locks[n-1]
				b.Release(t, l)
				lockBusy[l] = false
				th.locks = th.locks[:n-1]
			}
		case 10: // fork
			if o.NoFork {
				b.Write(t, vars[r.Intn(o.Vars)])
				break
			}
			for _, cand := range threads {
				if !cand.alive && !cand.finished {
					b.Fork(t, cand.id)
					cand.alive = true
					break
				}
			}
		case 11: // finish another thread's life, or join a finished one
			if o.NoFork {
				b.Read(t, vars[r.Intn(o.Vars)])
				break
			}
			joinedOne := false
			for _, cand := range threads {
				if cand.finished && !cand.joined && cand.id != t {
					b.Join(t, cand.id)
					cand.joined = true
					joinedOne = true
					break
				}
			}
			if !joinedOne && th != threads[0] && r.Intn(2) == 0 {
				// retire this thread: close its state
				closeThread(b, th, lockBusy)
			}
		}
	}
	for _, th := range threads {
		if th.alive && !th.finished {
			closeThread(b, th, lockBusy)
		}
	}
	tr := b.Build()
	if err := trace.ValidateStrict(tr); err != nil {
		panic("testutil: generated malformed trace: " + err.Error())
	}
	return tr
}

// PhaseShiftOpts controls PhaseShiftTrace.
type PhaseShiftOpts struct {
	// Threads is the thread count (≥2; all threads start alive, no
	// fork/join structure).
	Threads int
	// BurstRounds is the number of chain-burst rounds: every thread, in
	// order, runs a transaction that reads the previous thread's token and
	// writes its own — the densely entangled shape.
	BurstRounds int
	// SteadyRounds is the number of sharded steady-state rounds that
	// follow: every thread runs a transaction over its private variables
	// only — the shape whose joins change nothing.
	SteadyRounds int
	// OpsPerTxn is the number of private accesses per steady-state
	// transaction (default 4).
	OpsPerTxn int
}

// PhaseShiftTrace builds the deterministic phase-shift shape: a chain
// burst followed by a sharded steady state. The trace is conflict
// serializable (token conflicts point forward only; steady-state accesses
// are thread-private), so it exercises the change of shape without a
// verdict change.
func PhaseShiftTrace(o PhaseShiftOpts) *trace.Trace {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.OpsPerTxn < 1 {
		o.OpsPerTxn = 4
	}
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, o.Threads)
	for i := range threads {
		threads[i] = b.Thread("t" + suffix(i))
	}
	tokens := make([]trace.VarID, o.Threads)
	for i := range tokens {
		tokens[i] = b.Var("tok" + suffix(i))
	}
	private := make([][]trace.VarID, o.Threads)
	for i := range private {
		private[i] = make([]trace.VarID, o.OpsPerTxn)
		for j := range private[i] {
			private[i][j] = b.Var("p" + suffix(i) + "_" + suffix(j))
		}
	}
	// Fork the workers from thread 0, as the workload generator does: the
	// fork edge seeds every worker clock with a foreign component, so end
	// events take the full-propagation path and the burst actually
	// entangles the clocks (a forkless ring is garbage-collected whole and
	// never propagates a clock).
	for i := 1; i < o.Threads; i++ {
		b.Fork(threads[0], threads[i])
	}
	for r := 0; r < o.BurstRounds; r++ {
		for w := 0; w < o.Threads; w++ {
			prev := (w + o.Threads - 1) % o.Threads
			b.Begin(threads[w])
			b.Read(threads[w], tokens[prev])
			b.Write(threads[w], tokens[w])
			b.End(threads[w])
		}
	}
	for r := 0; r < o.SteadyRounds; r++ {
		for w := 0; w < o.Threads; w++ {
			b.Begin(threads[w])
			for j := 0; j < o.OpsPerTxn; j++ {
				if (r+j)%2 == 0 {
					b.Write(threads[w], private[w][j])
				} else {
					b.Read(threads[w], private[w][j])
				}
			}
			b.End(threads[w])
		}
	}
	for i := 1; i < o.Threads; i++ {
		b.Join(threads[0], threads[i])
	}
	tr := b.Build()
	if err := trace.ValidateStrict(tr); err != nil {
		panic("testutil: phase-shift trace malformed: " + err.Error())
	}
	return tr
}

func closeThread(b *trace.Builder, th *genThread, lockBusy []bool) {
	for n := len(th.locks); n > 0; n = len(th.locks) {
		l := th.locks[n-1]
		b.Release(th.id, l)
		lockBusy[l] = false
		th.locks = th.locks[:n-1]
	}
	for th.depth > 0 {
		b.End(th.id)
		th.depth--
	}
	th.finished = true
}

func suffix(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return suffix(i/10) + string(rune('0'+i%10))
}
