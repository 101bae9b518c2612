package core

// Deferred end-of-transaction flushes (see Optimized): handcrafted traces
// that drive each deferral rule through a verdict that depends on it, and a
// pool-invariant sweep over random traces.
//
// Every handcrafted trace is pinned twice: the verdict must equal Basic's
// (Algorithm 1, no laziness at all) and the Algorithm 3 engine must report
// the violation index the eager-flush engine reported for it.

import (
	"fmt"
	"math/rand"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
)

// entangled returns a builder whose threads t0..t{n-1} have all absorbed a
// foreign component through a unary write of z by t0 (so their ends take
// the full propagation path), after reads of z by t1..t{n-1}.
func entangled(n int) (*trace.Builder, []trace.ThreadID) {
	b := trace.NewBuilder()
	ts := make([]trace.ThreadID, n)
	for i := range ts {
		ts[i] = b.Thread(string(rune('0' + i)))
	}
	z := b.Var("z")
	b.Write(ts[0], z)
	for _, t := range ts[1:] {
		b.Read(t, z)
	}
	return b, ts
}

// pinDeferred asserts that Basic also reports tr as a violation, and that
// the Algorithm 3 engine deferred at least one flush and reports the
// violation at wantIndex with wantCheck, no later than Basic. It also
// replays tr under the per-event shortcut and variable-record checks.
func pinDeferred(t *testing.T, tr *trace.Trace, wantIndex int64, wantCheck CheckKind) {
	t.Helper()
	vb, _ := Run(NewBasic(), tr.Cursor())
	if vb == nil {
		t.Fatal("Basic reports no violation")
	}
	eng := NewOptimized()
	v, _ := Run(eng, tr.Cursor())
	if eng.Stats().FlushesDeferred == 0 {
		t.Error("no flush deferred")
	}
	if v == nil || v.Index != wantIndex || v.Check != wantCheck {
		t.Errorf("violation = %+v, want %v at index %d", v, wantCheck, wantIndex)
	}
	if v != nil && v.Index > vb.Index {
		t.Errorf("index %d after Basic's %d", v.Index, vb.Index)
	}
	replayShortcuts(t, "pinned trace", NewOptimized(), tr)
}

// runPrefix feeds the first n events of tr to a fresh engine.
func runPrefix(t *testing.T, tr *trace.Trace, n int) *Optimized {
	t.Helper()
	eng := NewOptimized()
	stepTo(t, eng, tr, 0, n)
	return eng
}

// TestDeferredReplacedByOtherOwner: t2's end leaves a pending R_x snapshot
// carrying T's begin stamp; t0's end then flushes x too, which must settle
// t2's snapshot into ȒR_x before replacing it. t1's write of x inside T
// then fires the ȒR check from the settled component alone (t0's snapshot
// knows nothing of T).
func TestDeferredReplacedByOtherOwner(t *testing.T) {
	b, ts := entangled(3)
	t0, t1, t2 := ts[0], ts[1], ts[2]
	q, a, x := b.Var("q"), b.Var("a"), b.Var("x")
	b.Write(t1, q).Read(t0, q) // t0 absorbs t1: foreign as well
	b.Begin(t1).Write(t1, a)   // T
	b.Begin(t2).Read(t2, a).Read(t2, x).End(t2)
	b.Begin(t0).Read(t0, x).End(t0)
	b.Write(t1, x).End(t1)
	tr := b.Build()

	eng := runPrefix(t, tr, 14)
	v := eng.varAt(int32(x))
	if v.pendR == noSnap || eng.snapOwner[v.pendR] != int32(t0) {
		t.Fatalf("pending R_x should be t0's snapshot, got slot %d", v.pendR)
	}
	if coldState(eng, v).hrx.At(int(t1)) == 0 {
		t.Fatal("t2's snapshot was replaced without being settled into ȒR_x")
	}
	pinDeferred(t, tr, 14, CheckWriteRead)
}

// TestDeferredUnaryWriteDropsPendingW: a unary write overwrites W_x, so the
// pending snapshot it supersedes is released back to the pool rather than
// joined; the overwritten W_x then drives a read-check violation.
func TestDeferredUnaryWriteDropsPendingW(t *testing.T) {
	b, ts := entangled(2)
	t0, t1 := ts[0], ts[1]
	x, bb := b.Var("x"), b.Var("b")
	b.Begin(t1).Write(t1, x).End(t1) // full end: pending W_x
	b.Write(t1, x)                   // unary overwrite
	b.Begin(t0).Write(t0, bb)        // R
	b.Read(t1, bb).Write(t1, x)      // x now carries R's begin
	b.Read(t0, x).End(t0)            // closes R → t1 → R
	tr := b.Build()

	eng := runPrefix(t, tr, 5)
	if p := eng.varAt(int32(x)).pendW; p == noSnap || eng.snapOwner[p] != int32(t1) {
		t.Fatalf("full end left no pending W_x of t1 (slot %d)", p)
	}
	eng.Process(tr.Events[5])
	if eng.varAt(int32(x)).pendW != noSnap {
		t.Fatal("unary write kept the pending W_x")
	}
	if len(eng.snapFree) != len(eng.snaps) {
		t.Fatalf("dropped snapshot not recycled: %d free of %d", len(eng.snapFree), len(eng.snaps))
	}
	pinDeferred(t, tr, 10, CheckRead)
}

// TestDeferredGCResetThenOwnerConsult: a garbage-collected transaction
// resets lastW of x; later U's end replaces V's pending W_x with its own
// snapshot while lastW is V's thread, so U's thread reading x consults its
// own pending snapshot. snapBelow proves that join a no-op, so the read
// skips it and leaves the snapshot pending. R's read of x then closes
// R → U → V → R through the still-pending snapshot.
func TestDeferredGCResetThenOwnerConsult(t *testing.T) {
	b, ts := entangled(3)
	t0, t1, t2 := ts[0], ts[1], ts[2]
	t3 := b.Thread("3") // never absorbs anything: its ends are collected
	x, bb, a := b.Var("x"), b.Var("b"), b.Var("a")
	b.Begin(t3).Write(t3, x).End(t3)             // GC end: lastW(x) reset
	b.Begin(t0).Write(t0, bb)                    // R
	b.Begin(t1).Read(t1, bb).Write(t1, a)        // U
	b.Begin(t2).Read(t2, a).Write(t2, x).End(t2) // V: pending W_x, owner t2
	b.End(t1)                                    // settles V's, pending W_x of t1
	b.Read(t1, x)                                // owner consults its own snapshot
	b.Read(t0, x).End(t0)
	tr := b.Build()

	eng := runPrefix(t, tr, 6)
	if eng.varAt(int32(x)).lastW != nilThread || eng.endsCollected != 1 {
		t.Fatalf("GC end did not reset lastW (lastW %d, collected %d)", eng.varAt(int32(x)).lastW, eng.endsCollected)
	}
	eng = runPrefix(t, tr, 16)
	v := eng.varAt(int32(x))
	if v.pendW == noSnap || eng.snapOwner[v.pendW] != int32(t1) || v.lastW != int32(t2) {
		t.Fatalf("want t1's pending W_x under lastW t2, got slot %d lastW %d", v.pendW, v.lastW)
	}
	settled, skipped := eng.flushesSettled, eng.joinsSkipped
	eng.Process(tr.Events[16])
	if v.pendW == noSnap || eng.flushesSettled != settled || eng.joinsSkipped != skipped+1 {
		t.Fatalf("the owner's read should skip the join of its own pending W_x without settling it (pendW %d, settled +%d, skipped +%d)",
			v.pendW, eng.flushesSettled-settled, eng.joinsSkipped-skipped)
	}
	pinDeferred(t, tr, 17, CheckRead)
}

// TestDeferredFlushBreaksRepeatWrite: between two writes of x inside T, a
// reader's end defers its R_x flush. The deferral leaves the rx/w versions
// untouched, so the repeat-write epoch must be invalidated explicitly or
// the second write would skip the ȒR check that fires here.
func TestDeferredFlushBreaksRepeatWrite(t *testing.T) {
	b, ts := entangled(3)
	t1, t2 := ts[1], ts[2]
	a, x := b.Var("a"), b.Var("x")
	b.Begin(t1).Write(t1, a).Write(t1, x)       // T; first write of x
	b.Begin(t2).Read(t2, a).Read(t2, x).End(t2) // U ordered after T's begin
	b.Write(t1, x).End(t1)                      // repeat write: U → T closes
	tr := b.Build()

	eng := runPrefix(t, tr, 10)
	v := eng.varAt(int32(x))
	if v.pendR == noSnap || v.wsThread == int32(t1) {
		t.Fatalf("deferral did not invalidate the repeat-write epoch (pendR %d, epoch thread %d)",
			v.pendR, v.wsThread)
	}
	pinDeferred(t, tr, 10, CheckWriteRead)
}

// TestDeferredHRCheckReadsPendingSnapshot: the ȒR check of t1's write
// consults t2's still-pending snapshot directly (ȒR_x itself is untouched),
// and fires from that component.
func TestDeferredHRCheckReadsPendingSnapshot(t *testing.T) {
	b, ts := entangled(3)
	t1, t2 := ts[1], ts[2]
	a, x := b.Var("a"), b.Var("x")
	b.Begin(t1).Write(t1, a) // T
	b.Begin(t2).Read(t2, a).Read(t2, x).End(t2)
	b.Write(t1, x).End(t1)
	tr := b.Build()

	eng := runPrefix(t, tr, 9)
	v := eng.varAt(int32(x))
	if h := coldState(eng, v).hrx.At(int(t1)); v.pendR == noSnap || eng.snapOwner[v.pendR] != int32(t2) || h != 0 {
		t.Fatalf("want an unsettled pending R_x of t2 (slot %d, ȒR_x(t1) %d)", v.pendR, h)
	}
	if got := eng.hrxAt(v, int(t1)); got < eng.threads[t1].begin {
		t.Fatalf("hrxAt(t1) = %d misses the pending snapshot's component", got)
	}
	pinDeferred(t, tr, 9, CheckWriteRead)
}

// checkPool asserts the pool invariants: each snapshot's refcount equals
// the number of pending slots naming it, the free list holds exactly the
// unreferenced snapshots, and the pool never grew past the peak number of
// pending slots (tracked in *peak) plus the one being filled.
func checkPool(t *testing.T, ctx string, e *Optimized, peak *int) {
	t.Helper()
	count := make([]int32, len(e.snaps))
	pending := 0
	forVars(e, func(_ int32, v *varHot) {
		for _, s := range []int32{v.pendW, v.pendR} {
			if s != noSnap {
				count[s]++
				pending++
			}
		}
	})
	for s := range count {
		if e.snapRefs[s] != count[s] {
			t.Fatalf("%s: snapshot %d refcount %d, %d slots name it", ctx, s, e.snapRefs[s], count[s])
		}
	}
	onFree := make([]bool, len(e.snaps))
	for _, s := range e.snapFree {
		if e.snapRefs[s] != 0 || onFree[s] {
			t.Fatalf("%s: free-list entry %d has refcount %d (duplicate %v)", ctx, s, e.snapRefs[s], onFree[s])
		}
		onFree[s] = true
	}
	if unref := len(e.snaps) - countNonzero(count); len(e.snapFree) != unref {
		t.Fatalf("%s: %d free entries, %d unreferenced snapshots", ctx, len(e.snapFree), unref)
	}
	*peak = max(*peak, pending)
	if len(e.snaps) > *peak+1 {
		t.Fatalf("%s: pool holds %d snapshots, peak pending slots %d", ctx, len(e.snaps), *peak)
	}
}

func countNonzero(xs []int32) int {
	n := 0
	for _, x := range xs {
		if x != 0 {
			n++
		}
	}
	return n
}

func TestDeferredPoolInvariants(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		r := rand.New(rand.NewSource(4242))
		deferred := int64(0)
		for iter := 0; iter < 150; iter++ {
			tr := testutil.RandomTrace(r, testutil.GenOpts{
				Threads: 2 + r.Intn(5), Vars: 1 + r.Intn(6), Locks: 1 + r.Intn(2),
				Steps: 20 + r.Intn(150), TxnBias: r.Intn(10),
			})
			eng := NewOptimized()
			peak := 0
			for i, e := range tr.Events {
				v := eng.Process(e)
				checkPool(t, fmt.Sprintf("iter %d event %d", iter, i), eng, &peak)
				if v != nil {
					break
				}
			}
			deferred += eng.Stats().FlushesDeferred
		}
		if deferred == 0 {
			t.Fatal("random traces never deferred a flush")
		}
	})
}
