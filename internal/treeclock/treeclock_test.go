package treeclock

import (
	"fmt"
	"math/rand"
	"testing"

	"aerodrome/internal/vc"
)

// pair is a tree clock and the flat reference clock it must track.
type pair struct {
	tc *Clock
	fc vc.Clock
}

func (p *pair) check(t *testing.T, ctx string) {
	t.Helper()
	got := p.tc.Flat()
	if !got.Equal(p.fc) {
		t.Fatalf("%s: tree %v != flat %v\ntree:\n%s", ctx, got, p.fc, p.tc.debugTree())
	}
	// The lazily maintained flat mirror must agree with the node arena:
	// the flat-interop operations (and hence the hybrid engine's verdicts)
	// read the mirror, not the nodes.
	if mv := p.tc.flatView(); !mv.Equal(p.fc) {
		t.Fatalf("%s: mirror %v != flat %v\ntree:\n%s", ctx, mv, p.fc, p.tc.debugTree())
	}
}

// TestUnitAndInc checks the thread-clock lifecycle basics.
func TestUnitAndInc(t *testing.T) {
	c := New()
	c.InitUnit(3)
	if c.At(3) != 1 || c.At(0) != 0 || c.At(99) != 0 {
		t.Fatalf("unit clock wrong: %v", c)
	}
	c.Inc(3)
	c.Inc(3)
	if c.At(3) != 3 {
		t.Fatalf("inc: got %d", c.At(3))
	}
	if c.HasEntryOtherThan(3) {
		t.Fatalf("own-only clock reported foreign entries")
	}
	if !c.HasEntryOtherThan(4) {
		t.Fatalf("nonzero clock must have entries other than t4")
	}
}

func TestJoinBasic(t *testing.T) {
	a, b := New(), New()
	a.InitUnit(0)
	b.InitUnit(1)
	b.Inc(1)
	a.Join(b)
	if a.At(0) != 1 || a.At(1) != 2 {
		t.Fatalf("join: %v", a)
	}
	if !b.Leq(a) {
		t.Fatalf("b ⊑ a must hold after a ⊔= b")
	}
	if a.Leq(b) {
		t.Fatalf("a ⋢ b: a has component 0")
	}
}

// TestStaleRejoin reproduces the publish-absorb-publish pattern that makes
// the classical local-clock keying unsound for AeroDrome: thread 0
// publishes, absorbs new knowledge without incrementing, and publishes
// again; the second publish must not be skipped.
func TestStaleRejoin(t *testing.T) {
	c0, c1, c2 := New(), New(), New()
	c0.InitUnit(0)
	c1.InitUnit(1)
	c2.InitUnit(2)

	c1.Join(c0) // t1 absorbs t0's clock (publish #1)
	c2.Inc(2)
	c0.Join(c2) // t0 absorbs t2 — no local increment
	c1.Join(c0) // publish #2: t1 must now learn t2's component
	if c1.At(2) != 2 {
		t.Fatalf("second publish lost t2's component: %v\n%s", c1, c1.debugTree())
	}
}

// TestAuxiliaryJoin covers the inexact-root path: joining a thread clock
// into an auxiliary clock (AeroDrome's end-event lock/write propagation)
// and consuming the result.
func TestAuxiliaryJoin(t *testing.T) {
	c0, c1 := New(), New()
	c0.InitUnit(0)
	c1.InitUnit(1)
	l := New()
	l.CopyFrom(c0) // rel(ℓ) by t0
	c1.Inc(1)
	l.Join(c1) // end-event propagation into the lock clock
	if l.At(0) != 1 || l.At(1) != 2 {
		t.Fatalf("aux join: %v", l)
	}
	acq := New()
	acq.InitUnit(3)
	acq.Join(l)
	if acq.At(0) != 1 || acq.At(1) != 2 || acq.At(3) != 1 {
		t.Fatalf("join from inexact aux: %v\n%s", acq, acq.debugTree())
	}
}

func TestJoinZeroingInto(t *testing.T) {
	c := New()
	c.InitUnit(2)
	c.Inc(2)
	o := New()
	o.InitUnit(5)
	c.Join(o)
	var dst vc.Sparse
	c.JoinZeroingInto(&dst, 2)
	if dst.At(2) != 0 || dst.At(5) != 1 {
		t.Fatalf("zeroing join: %v", dst.Flat())
	}
}

func TestJoinFlat(t *testing.T) {
	c := New()
	c.InitUnit(1)
	c.Inc(1)
	c.JoinFlat(vc.Clock{3, 1, 0, 4})
	want := vc.Clock{3, 2, 0, 4}
	if !c.Flat().Equal(want) {
		t.Fatalf("JoinFlat: %v want %v\n%s", c.Flat(), want, c.debugTree())
	}
	ver := c.Ver()
	c.JoinFlat(vc.Clock{2, 1, 0, 4}) // dominated: must be a no-op
	if c.Ver() != ver {
		t.Fatalf("dominated JoinFlat mutated the clock")
	}
	// A tree that absorbed flat content must still join correctly into
	// other trees (the ver-0 entries are never skipped).
	d := New()
	d.InitUnit(0)
	d.Join(c)
	if !d.Flat().Equal(vc.Clock{3, 2, 0, 4}) {
		t.Fatalf("join from flat-tainted tree: %v\nsrc:\n%s", d.Flat(), c.debugTree())
	}
}

func TestJoinFlatIntoEmptyAux(t *testing.T) {
	c := New()
	c.JoinFlat(vc.Clock{0, 5, 0, 2})
	if !c.Flat().Equal(vc.Clock{0, 5, 0, 2}) {
		t.Fatalf("JoinFlat into ⊥: %v", c.Flat())
	}
	d := New()
	d.InitUnit(0)
	d.Join(c)
	if !d.Flat().Equal(vc.Clock{1, 5, 0, 2}) {
		t.Fatalf("join from flat-built tree: %v", d.Flat())
	}
}

func TestAbsorbIntoFlat(t *testing.T) {
	c := New()
	c.InitUnit(2)
	c.Inc(2)
	o := New()
	o.InitUnit(4)
	c.Join(o)
	dst := vc.Clock{7, 0, 1}
	dst, grew, changed := c.AbsorbIntoFlat(dst)
	if !changed || grew != 1 {
		t.Fatalf("changed=%v grew=%d", changed, grew)
	}
	if !dst.Equal(vc.Clock{7, 0, 2, 0, 1}) {
		t.Fatalf("AbsorbIntoFlat: %v", dst)
	}
	_, grew, changed = c.AbsorbIntoFlat(dst)
	if changed || grew != 0 {
		t.Fatalf("dominated absorb reported change (%v, %d)", changed, grew)
	}
}

// TestRandomizedAgainstFlat drives randomized operation sequences shaped
// exactly like AeroDrome's clock discipline through tree clocks and flat
// clocks in lockstep, checking vector equality after every operation and
// Leq agreement on random pairs.
func TestRandomizedAgainstFlat(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for iter := 0; iter < iters; iter++ {
		seed := int64(1000 + iter)
		r := rand.New(rand.NewSource(seed))
		nThreads := 2 + r.Intn(6)
		nAux := 1 + r.Intn(4)
		steps := 20 + r.Intn(120)

		threads := make([]*pair, nThreads)
		begins := make([]*pair, nThreads) // begin-clock copies of the threads
		aux := make([]*pair, nAux)
		for i := range threads {
			tc := New()
			tc.InitUnit(i)
			threads[i] = &pair{tc: tc, fc: vc.Unit(i)}
			begins[i] = &pair{tc: New(), fc: nil}
		}
		for i := range aux {
			aux[i] = &pair{tc: New(), fc: nil}
		}
		// Flat-only auxiliaries, as the hybrid engine keeps them: fauxs is
		// maintained through the tree interop APIs (AbsorbIntoFlat), frefs
		// through plain flat operations; they must stay equal.
		nFlat := 1 + r.Intn(3)
		fauxs := make([]vc.Clock, nFlat)
		frefs := make([]vc.Clock, nFlat)
		all := func() []*pair {
			out := append([]*pair{}, threads...)
			out = append(out, begins...)
			return append(out, aux...)
		}

		for step := 0; step < steps; step++ {
			ti := r.Intn(nThreads)
			ui := r.Intn(nThreads)
			ai := r.Intn(nAux)
			fi := r.Intn(nFlat)
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch r.Intn(9) {
			case 0: // begin: inc own component, copy the begin clock
				threads[ti].tc.Inc(ti)
				threads[ti].fc = threads[ti].fc.Inc(ti)
				begins[ti].tc.CopyFrom(threads[ti].tc)
				begins[ti].fc = threads[ti].fc.CopyInto(begins[ti].fc)
				begins[ti].check(t, ctx+" begin-copy")
			case 1: // thread ⊔= thread
				threads[ti].tc.Join(threads[ui].tc)
				threads[ti].fc = threads[ti].fc.Join(threads[ui].fc)
			case 2: // aux := thread (release / unary write)
				aux[ai].tc.CopyFrom(threads[ti].tc)
				aux[ai].fc = threads[ti].fc.CopyInto(aux[ai].fc)
			case 3: // aux ⊔= thread (end-event propagation)
				aux[ai].tc.Join(threads[ti].tc)
				aux[ai].fc = aux[ai].fc.Join(threads[ti].fc)
			case 4: // thread ⊔= aux (acquire / read check)
				threads[ti].tc.Join(aux[ai].tc)
				threads[ti].fc = threads[ti].fc.Join(aux[ai].fc)
			case 5: // Leq agreement on random operands
				x, y := all()[r.Intn(2*nThreads+nAux)], all()[r.Intn(2*nThreads+nAux)]
				if got, want := x.tc.Leq(y.tc), x.fc.Leq(y.fc); got != want {
					t.Fatalf("%s: Leq=%v want %v\nx=%v y=%v\nxtree:\n%s ytree:\n%s",
						ctx, got, want, x.fc, y.fc, x.tc.debugTree(), y.tc.debugTree())
				}
			case 6: // zeroing join agreement
				var dt vc.Sparse
				threads[ti].tc.JoinZeroingInto(&dt, ti)
				df := vc.Clock(nil).JoinZeroing(threads[ti].fc, ti)
				if !dt.Flat().Equal(df) {
					t.Fatalf("%s: zeroing %v want %v", ctx, dt.Flat(), df)
				}
			case 7: // thread ⊔= flat aux (hybrid acquire / read check)
				threads[ti].tc.JoinFlat(fauxs[fi])
				threads[ti].fc = threads[ti].fc.Join(frefs[fi])
			case 8: // flat aux ⊔= thread (hybrid end-event propagation)
				fauxs[fi], _, _ = threads[ti].tc.AbsorbIntoFlat(fauxs[fi])
				frefs[fi] = frefs[fi].Join(threads[ti].fc)
				if !fauxs[fi].Equal(frefs[fi]) {
					t.Fatalf("%s: absorb %v want %v", ctx, fauxs[fi], frefs[fi])
				}
			}
			threads[ti].check(t, ctx+" thread")
			aux[ai].check(t, ctx+" aux")
		}
	}
}

// TestJoinSkipsDominatedSubtrees is a white-box check that the version
// fast paths actually fire: re-joining an unchanged clock must not grow
// the mutation counter.
func TestJoinSkipsDominatedSubtrees(t *testing.T) {
	a, b := New(), New()
	a.InitUnit(0)
	b.InitUnit(1)
	a.Join(b)
	before := a.Ver()
	a.Join(b) // nothing new: whole-tree fast path
	if a.Ver() != before {
		t.Fatalf("re-join of unchanged clock mutated the target")
	}
}

func BenchmarkTreeJoinWide(b *testing.B) {
	// One hub clock that already knows 256 threads, joined into a fresh
	// thread clock: first join pays for the transfer, the rest hit the
	// whole-tree fast path.
	hub := New()
	hub.InitUnit(0)
	for u := 1; u < 256; u++ {
		c := New()
		c.InitUnit(u)
		hub.Join(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New()
		c.InitUnit(1)
		c.Join(hub)
		c.Join(hub)
	}
}

func BenchmarkTreeJoinFastPath(b *testing.B) {
	hub := New()
	hub.InitUnit(0)
	for u := 1; u < 256; u++ {
		c := New()
		c.InitUnit(u)
		hub.Join(c)
	}
	sink := New()
	sink.InitUnit(1)
	sink.Join(hub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Join(hub) // dominated: must be O(1)
	}
}

func BenchmarkTreeLeqDominated(b *testing.B) {
	src := New()
	src.InitUnit(0)
	for u := 1; u < 256; u++ {
		c := New()
		c.InitUnit(u)
		src.Join(c)
	}
	big := New()
	big.InitUnit(1)
	big.Join(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !src.Leq(big) {
			b.Fatal("src must be ⊑ big")
		}
	}
}
