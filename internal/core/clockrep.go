package core

import (
	"aerodrome/internal/treeclock"
	"aerodrome/internal/vc"
)

// clockRep is the clock-representation layer behind the Optimized engine:
// the small set of vector-time operations Algorithm 3 needs, implemented
// by the flat vc.Clock adapter (*flatClock), by *treeclock.Clock, and by
// the mixed *hybridClock (tree thread clocks, flat auxiliaries). C is
// always a pointer type, so clock identity is pointer identity — the
// epoch fast paths key on (identity, Ver) pairs.
//
// The ȒR_x accumulators are deliberately NOT behind this interface: they
// are updated only through zeroing joins (outside the tree clock transfer
// discipline) and read only through single components, so every
// representation keeps them in the shared sparse encoding (vc.Sparse,
// thread→time pairs) and exposes JoinZeroingInto to feed them.
type clockRep[C comparable] interface {
	comparable
	// InitUnit resets the clock to ⊥[1/t] and marks thread t as its owner.
	InitUnit(t int)
	// At returns component t (0 when absent).
	At(t int) vc.Time
	// Inc increments component t (own component of a thread clock).
	Inc(t int)
	// Leq reports whether this clock ⊑ o.
	Leq(o C) bool
	// Join sets this clock to its join with o.
	Join(o C)
	// JoinZeroingInto joins this clock's components into the sparse ȒR
	// accumulator dst, ignoring component skip.
	JoinZeroingInto(dst *vc.Sparse, skip int)
	// CopyFrom overwrites this clock with o (deep assignment).
	CopyFrom(o C)
	// MonotoneCopyFrom overwrites this clock with o under the caller's
	// guarantee that this clock ⊑ o (begin clocks chasing thread clocks);
	// representations may use it as a change-only fast path.
	MonotoneCopyFrom(o C)
	// Ver is a mutation counter: it changes whenever the represented
	// vector may have changed, never otherwise-observably. (identity, Ver)
	// pairs are the epochs of the already-dominated fast paths.
	Ver() uint64
	// HasEntryOtherThan reports whether any component other than t is
	// nonzero (the sticky foreign-component test behind transaction GC).
	HasEntryOtherThan(t int) bool
	// Flat snapshots the represented vector (white-box accessors, tests).
	Flat() vc.Clock
}

// flatClock adapts vc.Clock to clockRep. Alongside the raw slice it
// maintains the nonzero-entry count (O(1) HasEntryOtherThan) and the
// mutation counter for the epoch fast paths; the vector operations
// themselves are the flat O(width) loops of internal/vc.
type flatClock struct {
	c   vc.Clock
	nz  int
	mut uint64
}

func newFlatClock() *flatClock { return &flatClock{} }

func (f *flatClock) InitUnit(t int) {
	f.c = vc.Unit(t)
	f.nz = 1
	f.mut++
}

func (f *flatClock) At(t int) vc.Time { return f.c.At(t) }

func (f *flatClock) Inc(t int) {
	f.c = f.c.Inc(t)
	if f.c[t] == 1 {
		f.nz++
	}
	f.mut++
}

func (f *flatClock) Leq(o *flatClock) bool { return f.c.Leq(o.c) }

// Join is branchless per lane: a max, with the change and the
// zero-to-nonzero transitions accumulated arithmetically. Times are
// non-negative, so (x-1)>>63 is all ones exactly when x == 0 and (-x)>>63
// exactly when x > 0.
func (f *flatClock) Join(o *flatClock) {
	if len(o.c) > len(f.c) {
		f.c = f.c.Grow(len(o.c))
	}
	dst := f.c[:len(o.c)]
	var diff, grew vc.Time
	for i, v := range o.c {
		old := dst[i]
		n := max(old, v)
		dst[i] = n
		diff |= n ^ old
		grew += ((old - 1) >> 63) & ((-n) >> 63) // -1 per lane that became nonzero
	}
	f.nz -= int(grew)
	if diff != 0 {
		f.mut++
	}
}

func (f *flatClock) JoinZeroingInto(dst *vc.Sparse, skip int) {
	dst.JoinZeroing(f.c, skip)
}

func (f *flatClock) CopyFrom(o *flatClock) {
	f.c = o.c.CopyInto(f.c)
	f.nz = o.nz
	f.mut++
}

func (f *flatClock) MonotoneCopyFrom(o *flatClock) { f.CopyFrom(o) }

func (f *flatClock) Ver() uint64 { return f.mut }

func (f *flatClock) HasEntryOtherThan(t int) bool {
	return f.nz >= 2 || (f.nz == 1 && f.c.At(t) == 0)
}

func (f *flatClock) Flat() vc.Clock { return f.c.Copy() }

// Interface conformance (treeclock.Clock implements clockRep natively):
// clockRep embeds comparable, so conformance is checked by instantiating a
// generic function instead of a plain interface assertion.
func assertClockRep[C clockRep[C]]() {}

var (
	_ = assertClockRep[*flatClock]
	_ = assertClockRep[*treeclock.Clock]
	_ = assertClockRep[*hybridClock]
)
