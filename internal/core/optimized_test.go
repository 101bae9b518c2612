package core

import (
	"testing"

	"aerodrome/internal/trace"
)

// gcChainTrace is the counterexample showing why hasIncomingEdge must use
// the sticky foreign-component test rather than the printed begin-vs-end
// clock comparison. The cycle is
//
//	X → T1 (w(a) ≤ r(a)),  T1 → T2 (program order),
//	T2 → U (w(b) ≤ r(b)),  U → X (w(c) ≤ r(c)),
//
// where T2 absorbs nothing new *during* its own execution (its foreign
// knowledge arrived in T1), so the printed test would garbage-collect T2,
// drop the lazy W_b flush, and the checkers downstream would never learn
// that U is ordered after X's begin — missing the violation that Basic
// (and the oracle) report at X's r(c).
func gcChainTrace() *trace.Trace {
	b := trace.NewBuilder()
	x, t1, u := b.Thread("X"), b.Thread("t"), b.Thread("u")
	a, bb, c := b.Var("a"), b.Var("b"), b.Var("c")
	b.Begin(x).Write(x, a). // X's transaction stays open
				Begin(t1).Read(t1, a).End(t1).   // T1: absorbs X's begin
				Begin(t1).Write(t1, bb).End(t1). // T2: "clean" under the printed test
				Begin(u).Read(u, bb).Write(u, c).End(u).
				Read(x, c). // closes the cycle: must fire here
				End(x)
	return b.Build()
}

func TestGCChainCounterexample(t *testing.T) {
	tr := gcChainTrace()
	for _, algo := range []Algorithm{AlgoBasic, AlgoReadOpt, AlgoOptimized} {
		eng := New(algo)
		v, _ := Run(eng, tr.Cursor())
		if v == nil {
			t.Fatalf("%v: must report the chained-program-order cycle", algo)
		}
		// All engines detect at X's r(c) (event index 12).
		if v.Index != 12 || v.Check != CheckRead {
			t.Fatalf("%v: violation = %+v, want read check at index 12", algo, v)
		}
	}
}

func TestGCStatsPureChain(t *testing.T) {
	// Transactions that never absorb foreign components take the GC fast
	// path: thread-local work only.
	b := trace.NewBuilder()
	t1 := b.Thread("t1")
	x := b.Var("x")
	for i := 0; i < 50; i++ {
		b.Begin(t1).Write(t1, x).Read(t1, x).End(t1)
	}
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if s := eng.Stats(); s.EndsFull != 0 || s.EndsCollected != 50 {
		t.Fatalf("ends (%d full, %d collected), want all 50 collected", s.EndsFull, s.EndsCollected)
	}
}

func TestGCStatsTaintedChain(t *testing.T) {
	// Cross-thread variable sharing taints the clocks: every later end runs
	// the full propagation path.
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x := b.Var("x")
	for i := 0; i < 20; i++ {
		b.Begin(t1).Write(t1, x).End(t1)
		b.Begin(t2).Read(t2, x).Write(t2, x).End(t2)
	}
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	// t1's first transaction is clean (nothing read); t2's transactions and
	// t1's later ones (which absorb t2's writes via W_x) are all tainted.
	if s := eng.Stats(); s.EndsFull < 35 {
		t.Fatalf("ends (%d full, %d collected): expected mostly full-path ends", s.EndsFull, s.EndsCollected)
	}
}

func TestLazyWriteConsultsLiveClock(t *testing.T) {
	// While the writer's transaction is running, a reader must order after
	// the writer's *current* knowledge (lazy W). Construct a case where the
	// lazy consult makes the ordering visible one event earlier than the
	// flushed write clock would: the trace is a genuine violation either
	// way, but the optimized engine fires at the read (e6), while Basic
	// needs the end event (e7). (This is ρ3; kept here as the white-box
	// companion of TestOptimizedEarlierOnRho3 with stats.)
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x, y := b.Var("x"), b.Var("y")
	b.Begin(t1).Begin(t2).
		Write(t1, x).Write(t2, y).
		Read(t1, y).Read(t2, x).
		End(t1).End(t2)
	eng := NewOptimized()
	v, _ := Run(eng, b.Build().Cursor())
	if v == nil || v.Index != 5 {
		t.Fatalf("lazy consult should fire at the read, got %+v", v)
	}
}

func TestUnaryWriteIsEager(t *testing.T) {
	// A unary write must flush eagerly: the unary transaction completes at
	// once, so a later read must consult the *write event's* clock, not the
	// writer thread's live clock (which may grow unrelatedly). If the
	// implementation incorrectly marked the write stale, the read at the
	// end would absorb k's component and the subsequent write by t1 would
	// spuriously fire.
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x, y, k := b.Var("x"), b.Var("y"), b.Var("k")
	b.Begin(t1).Write(t1, x).End(t1). // history so clocks are nontrivial
						Write(t2, y).                   // unary write by t2
						Begin(t1).Write(t1, k).End(t1). // t1's k-transaction
						Read(t2, k).                    // t2 (outside txn) absorbs t1's k-cone
						Begin(t1).Read(t1, y).Write(t1, y).End(t1)
	runAllEngines(t, b.Build(), false, "unary eager write")
}

func runAllEngines(t *testing.T, tr *trace.Trace, want bool, ctx string) {
	t.Helper()
	for _, algo := range []Algorithm{AlgoBasic, AlgoReadOpt, AlgoOptimized} {
		eng := New(algo)
		v, _ := Run(eng, tr.Cursor())
		if (v != nil) != want {
			t.Errorf("%s: %v violation=%v want %v (%v)", ctx, algo, v != nil, want, v)
		}
	}
}

func TestChildlessForkJoinSerializable(t *testing.T) {
	// fork+join of a thread that never runs, inside one transaction: no
	// ≤CHB edges exist through the child, so this is serializable. The
	// printed join handler would false-positive here (see the `ran` guard).
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x := b.Var("x")
	b.Begin(t1).Write(t1, x).Fork(t1, t2).Join(t1, t2).End(t1)
	runAllEngines(t, b.Build(), false, "childless fork-join")
}

func TestForkJoinWithChildEventViolates(t *testing.T) {
	// One child event is enough to close T → U (fork ≤ e) and U → T
	// (e ≤ join): fork+join of a *running* thread inside one transaction is
	// a genuine violation.
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x, y := b.Var("x"), b.Var("y")
	b.Begin(t1).Write(t1, x).Fork(t1, t2).
		Read(t2, y). // the child's only event
		Join(t1, t2).End(t1)
	runAllEngines(t, b.Build(), true, "fork-join with child event")
}

func TestOptimizedStaleReaderSetDedup(t *testing.T) {
	// Repeated reads by the same thread must keep one stale entry, and the
	// eventual write must flush it exactly once (the lazy-read fast path the
	// paper motivates: long read runs cost no vector operations).
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x := b.Var("x")
	b.Begin(t1)
	for i := 0; i < 100; i++ {
		b.Read(t1, x)
	}
	b.End(t1)
	b.Begin(t2).Write(t2, x).End(t2)
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestOptimizedLockEndPropagation(t *testing.T) {
	// A completing transaction must propagate into lock clocks it is
	// ordered before (end's lock loop): t2 acquires ℓ after t1's
	// transaction released it; t3's acquire after t1's end must then be
	// ordered after all of t1's transaction.
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	l := b.Lock("l")
	x := b.Var("x")
	b.Begin(t1).Write(t1, x).Acquire(t1, l).Release(t1, l).End(t1).
		Acquire(t2, l).Release(t2, l).
		Begin(t2).Read(t2, x).Write(t2, x).End(t2)
	runAllEngines(t, b.Build(), false, "lock end propagation")
}

// TestEpochFastPathStats is a white-box check that the epoch fast path is
// not only sound but actually taken: repeated reads of the same variable
// under an unchanged write clock must not touch the reader's clock.
func TestEpochFastPathStats(t *testing.T) {
	b := trace.NewBuilder()
	t1, t2 := b.Thread("t1"), b.Thread("t2")
	x := b.Var("x")
	b.Write(t1, x) // unary write: flushes W_x
	b.Begin(t2)
	for i := 0; i < 50; i++ {
		b.Read(t2, x)
	}
	b.End(t2)
	eng := NewOptimized()
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	// After the first read absorbed W_x, every further read must hit the
	// epoch slot: same source clock, same version, same begin stamp.
	c := coldState(eng, eng.varAt(int32(x)))
	if c.slot.thread != int32(t2) || c.slot.src != &c.w {
		t.Fatalf("epoch slot not recorded: %+v", c.slot)
	}
	if got := c.w.Ver(); c.slot.srcVer != got {
		t.Fatalf("epoch slot version stale: slot %d clock %d", c.slot.srcVer, got)
	}
}

// TestRepromotionStaleClaimTrace replays the regression trace of a
// version-stream bug in the hybrid clock representation this package once
// had: thread 0 absorbs thread 1's live clock, t1's clock then moves on
// through a chain burst and a long private steady state, and finally a
// three-transaction cycle T7→T1→T0→T7 closes through content t0 can only
// learn from t1's clock as it is now. On flat clocks t0 enters the cycle
// holding a stale epoch about C_t1 (y's slot, at an old version); epochs
// are kept per variable, lock and thread, so the phase-D read of v1 goes
// through a fresh slot, and the trace pins the verdict: every engine must
// take the join that carries t7's begin stamp and report the violation
// where Basic does.
func TestRepromotionStaleClaimTrace(t *testing.T) {
	b := trace.NewBuilder()
	const n = 8
	th := make([]trace.ThreadID, n)
	for i := range th {
		th[i] = b.Thread("t" + string(rune('0'+i)))
	}
	y, v1, w7, q0 := b.Var("y"), b.Var("v1"), b.Var("w7"), b.Var("q0")
	tok := make([]trace.VarID, n)
	priv := make([]trace.VarID, n)
	for i := range tok {
		tok[i] = b.Var("tok" + string(rune('0'+i)))
		priv[i] = b.Var("priv" + string(rune('0'+i)))
	}
	for i := 1; i < n; i++ {
		b.Fork(th[0], th[i])
	}
	// A: pump t1's clock version well past the epoch t0 is about to
	// record, then let t0 absorb t1's live clock mid-transaction.
	for i := 0; i < 120; i++ {
		b.Begin(th[1])
		b.Write(th[1], y)
		b.End(th[1])
	}
	b.Begin(th[1])
	b.Write(th[1], y)
	b.Begin(th[0])
	b.Read(th[0], y) // t0 ⊔= C_t1 (live): epoch recorded in y's slot
	b.End(th[0])
	b.End(th[1])
	// B: chain burst among t1..t6.
	for r := 0; r < 8; r++ {
		for w := 1; w <= 6; w++ {
			prev := w - 1
			if prev < 1 {
				prev = 6
			}
			b.Begin(th[w])
			b.Read(th[w], tok[prev])
			b.Write(th[w], tok[w])
			b.End(th[w])
		}
	}
	// C: sharded steady state on t1's private variables.
	for r := 0; r < 30; r++ {
		b.Begin(th[1])
		b.Write(th[1], priv[1])
		b.Read(th[1], priv[1])
		b.Write(th[1], priv[2])
		b.End(th[1])
	}
	// D: the exposing cycle. t7's begin stamp travels t7→t1→t0 only
	// through t1's current clock.
	b.Begin(th[7])
	b.Write(th[7], w7)
	b.Begin(th[1])
	b.Read(th[1], w7) // t1 ⊔= C_t7 (live)
	b.Write(th[1], v1)
	b.Begin(th[0])
	b.Read(th[0], v1) // t0 ⊔= C_t1 (live): the join a stale epoch would skip
	b.Write(th[0], q0)
	b.Read(th[7], q0) // cycle closes: violation in every correct engine
	b.End(th[7])
	b.End(th[1])
	b.End(th[0])
	tr := b.Build()

	// The fixture must leave t0 holding an out-of-date epoch about C_t1
	// right before D, or it guards nothing.
	probe := NewOptimized()
	cur := tr.Cursor()
	for i := 0; i < len(tr.Events)-12; i++ {
		e, _ := cur.Next()
		probe.Process(e)
	}
	slot := coldState(probe, probe.varAt(int32(y))).slot
	if slot.thread != int32(th[0]) || slot.src != probe.threads[th[1]].c {
		t.Fatalf("fixture rot: y's epoch slot %+v does not name t0 absorbing C_t1", slot)
	}
	if slot.srcVer >= probe.threads[th[1]].c.Ver() {
		t.Fatalf("fixture rot: t0's epoch about C_t1 (version %d) is not stale (now %d)",
			slot.srcVer, probe.threads[th[1]].c.Ver())
	}

	vb, _ := Run(NewBasic(), tr.Cursor())
	if vb == nil {
		t.Fatal("fixture rot: the exposing cycle no longer violates")
	}
	for _, algo := range []Algorithm{AlgoReadOpt, AlgoOptimized} {
		v, _ := Run(New(algo), tr.Cursor())
		if v == nil || v.Index != vb.Index || v.Check != vb.Check {
			t.Fatalf("%v: violation = %+v, want %v at index %d as Basic", algo, v, vb.Check, vb.Index)
		}
	}
}
