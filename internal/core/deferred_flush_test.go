package core

// Deferred end-of-transaction flushes (see OptimizedOn): handcrafted traces
// that drive each deferral rule through a verdict that depends on it, and a
// pool-invariant sweep over random traces.
//
// Every handcrafted trace is pinned twice: the verdict must equal Basic's
// (Algorithm 1, no laziness at all) and every Algorithm 3 instantiation
// must report the violation index the eager-flush engine reported for it.

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
// every Algorithm 3 instantiation deferred at least one flush and reports
// the violation at wantIndex with wantCheck, no later than Basic.
func pinDeferred(t *testing.T, tr *trace.Trace, wantIndex int64, wantCheck CheckKind) {
	t.Helper()
	vb, _ := Run(NewBasic(), tr.Cursor())
	if vb == nil {
		t.Fatal("Basic reports no violation")
	}
	for _, eng := range []Engine{NewOptimized(), NewOptimizedTree(), NewOptimizedHybrid(),
		NewOptimizedAuto(), newOptimizedGenericFlat()} {
		v, _ := Run(eng, tr.Cursor())
		if eng.(StatsReporter).Stats().FlushesDeferred == 0 {
			t.Errorf("%s deferred no flush", eng.Name())
		}
		if v == nil || v.Index != wantIndex || v.Check != wantCheck {
			t.Errorf("%s: violation = %+v, want %v at index %d", eng.Name(), v, wantCheck, wantIndex)
		}
		if v != nil && v.Index > vb.Index {
			t.Errorf("%s: index %d after Basic's %d", eng.Name(), v.Index, vb.Index)
		}
	}
}

// runPrefix feeds the first n events of tr to a fresh flat engine.
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
	v := &eng.vars[x]
	if v.pendR == noSnap || eng.snapOwner[v.pendR] != int32(t0) {
		t.Fatalf("pending R_x should be t0's snapshot, got slot %d", v.pendR)
	}
	if v.hrx.At(int(t1)) == 0 {
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
	if p := eng.vars[x].pendW; p == noSnap || eng.snapOwner[p] != int32(t1) {
		t.Fatalf("full end left no pending W_x of t1 (slot %d)", p)
	}
	eng.Process(tr.Events[5])
	if eng.vars[x].pendW != noSnap {
		t.Fatal("unary write kept the pending W_x")
	}
	if len(eng.snapFree) != len(eng.snaps) {
		t.Fatalf("dropped snapshot not recycled: %d free of %d", len(eng.snapFree), len(eng.snaps))
	}
	pinDeferred(t, tr, 10, CheckRead)
}

// TestDeferredGCResetThenOwnerConsult: a garbage-collected transaction
// resets lastW of x; later U's end replaces V's pending W_x with its own
// snapshot while lastW is V's thread, so U's thread reading x consults (and
// settles) its own pending snapshot. R's read of x then closes
// R → U → V → R.
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
	if eng.vars[x].lastW != nilThread || eng.endsCollected != 1 {
		t.Fatalf("GC end did not reset lastW (lastW %d, collected %d)", eng.vars[x].lastW, eng.endsCollected)
	}
	eng = runPrefix(t, tr, 16)
	v := &eng.vars[x]
	if v.pendW == noSnap || eng.snapOwner[v.pendW] != int32(t1) || v.lastW != int32(t2) {
		t.Fatalf("want t1's pending W_x under lastW t2, got slot %d lastW %d", v.pendW, v.lastW)
	}
	settled := eng.flushesSettled
	eng.Process(tr.Events[16])
	if v.pendW != noSnap || eng.flushesSettled != settled+1 {
		t.Fatal("the owner's read did not settle its own pending W_x")
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
	v := &eng.vars[x]
	if v.pendR == noSnap || v.writeSlot.thread == int32(t1) {
		t.Fatalf("deferral did not invalidate the repeat-write epoch (pendR %d, slot thread %d)",
			v.pendR, v.writeSlot.thread)
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
	v := &eng.vars[x]
	if v.pendR == noSnap || eng.snapOwner[v.pendR] != int32(t2) || v.hrx.At(int(t1)) != 0 {
		t.Fatalf("want an unsettled pending R_x of t2 (slot %d, ȒR_x(t1) %d)", v.pendR, v.hrx.At(int(t1)))
	}
	if got := eng.hrxAt(v, int(t1)); got < eng.threads[t1].cb.At(int(t1)) {
		t.Fatalf("hrxAt(t1) = %d misses the pending snapshot's component", got)
	}
	pinDeferred(t, tr, 9, CheckWriteRead)
}

// poolView is the deferred-flush pool state of one engine instantiation.
type poolView struct {
	snaps        int
	refs, free   []int32
	pendW, pendR []int32
}

func flatPool(e *Optimized) poolView {
	p := poolView{snaps: len(e.snaps), refs: e.snapRefs, free: e.snapFree}
	for i := range e.vars {
		p.pendW = append(p.pendW, e.vars[i].pendW)
		p.pendR = append(p.pendR, e.vars[i].pendR)
	}
	return p
}

func hybridPool(e *OptimizedHybrid) poolView {
	p := poolView{snaps: len(e.snaps), refs: e.snapRefs, free: e.snapFree}
	for i := range e.vars {
		p.pendW = append(p.pendW, e.vars[i].pendW)
		p.pendR = append(p.pendR, e.vars[i].pendR)
	}
	return p
}

func treePool(e *OptimizedTree) poolView {
	p := poolView{snaps: len(e.snaps), refs: e.snapRefs, free: e.snapFree}
	for i := range e.vars {
		p.pendW = append(p.pendW, e.vars[i].pendW)
		p.pendR = append(p.pendR, e.vars[i].pendR)
	}
	return p
}

// check asserts the pool invariants: each snapshot's refcount equals the
// number of pending slots naming it, the free list holds exactly the
// unreferenced snapshots, and the pool never grew past the peak number of
// pending slots (tracked in *peak) plus the one being filled.
func (p poolView) check(t *testing.T, ctx string, peak *int) {
	t.Helper()
	count := make([]int32, p.snaps)
	pending := 0
	for _, slots := range [][]int32{p.pendW, p.pendR} {
		for _, s := range slots {
			if s != noSnap {
				count[s]++
				pending++
			}
		}
	}
	for s := range count {
		if p.refs[s] != count[s] {
			t.Fatalf("%s: snapshot %d refcount %d, %d slots name it", ctx, s, p.refs[s], count[s])
		}
	}
	onFree := make([]bool, p.snaps)
	for _, s := range p.free {
		if p.refs[s] != 0 || onFree[s] {
			t.Fatalf("%s: free-list entry %d has refcount %d (duplicate %v)", ctx, s, p.refs[s], onFree[s])
		}
		onFree[s] = true
	}
	if len(p.free) != p.snaps-countNonzero(count) {
		t.Fatalf("%s: %d free entries, %d unreferenced snapshots", ctx, len(p.free), p.snaps-countNonzero(count))
	}
	*peak = max(*peak, pending)
	if p.snaps > *peak+1 {
		t.Fatalf("%s: pool holds %d snapshots, peak pending slots %d", ctx, p.snaps, *peak)
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
	type inst struct {
		name string
		eng  func() (Engine, func() poolView)
	}
	for _, in := range []inst{
		{"flat", func() (Engine, func() poolView) {
			e := NewOptimized()
			return e, func() poolView { return flatPool(e) }
		}},
		{"tree", func() (Engine, func() poolView) {
			e := NewOptimizedTree()
			return e, func() poolView { return treePool(e) }
		}},
		{"hybrid", func() (Engine, func() poolView) {
			e := NewOptimizedHybrid()
			return e, func() poolView { return hybridPool(e) }
		}},
		{"auto", func() (Engine, func() poolView) {
			e := newOptimizedAutoWidth(3)
			return e, func() poolView { return hybridPool(e) }
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(4242))
			deferred := int64(0)
			for iter := 0; iter < 150; iter++ {
				tr := testutil.RandomTrace(r, testutil.GenOpts{
					Threads: 2 + r.Intn(5), Vars: 1 + r.Intn(6), Locks: 1 + r.Intn(2),
					Steps: 20 + r.Intn(150), TxnBias: r.Intn(10),
				})
				eng, view := in.eng()
				peak := 0
				for i, e := range tr.Events {
					v := eng.Process(e)
					view().check(t, fmt.Sprintf("%s iter %d event %d", in.name, iter, i), &peak)
					if v != nil {
						break
					}
				}
				deferred += eng.(StatsReporter).Stats().FlushesDeferred
			}
			if deferred == 0 {
				t.Fatal("random traces never deferred a flush")
			}
		})
	}
}
