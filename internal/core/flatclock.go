package core

import "aerodrome/internal/vc"

// flatClock is the vector clock behind the Optimized engine. Alongside the
// raw slice it maintains the nonzero-entry count (O(1) HasEntryOtherThan)
// and the mutation counter for the epoch fast paths; the vector operations
// themselves are the flat O(width) loops of internal/vc. Clock identity is
// pointer identity: the epoch fast paths key on (pointer, Ver) pairs.
type flatClock struct {
	c   vc.Clock
	nz  int
	mut uint64
}

func newFlatClock() *flatClock { return &flatClock{} }

// InitUnit resets the clock to ⊥[1/t].
func (f *flatClock) InitUnit(t int) {
	f.c = vc.Unit(t)
	f.nz = 1
	f.mut++
}

// At returns component t (0 when absent).
func (f *flatClock) At(t int) vc.Time { return f.c.At(t) }

// Inc increments component t (own component of a thread clock).
func (f *flatClock) Inc(t int) {
	f.c = f.c.Inc(t)
	if f.c[t] == 1 {
		f.nz++
	}
	f.mut++
}

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

// JoinZeroingInto joins this clock's components into the sparse ȒR
// accumulator dst, ignoring component skip.
func (f *flatClock) JoinZeroingInto(dst *vc.Sparse, skip int) {
	dst.JoinZeroing(f.c, skip)
}

// CopyFrom overwrites this clock with o (deep assignment).
func (f *flatClock) CopyFrom(o *flatClock) {
	f.c = o.c.CopyInto(f.c)
	f.nz = o.nz
	f.mut++
}

// Ver is a mutation counter: it changes whenever the vector may have
// changed, never otherwise-observably. (identity, Ver) pairs are the epochs
// of the already-dominated fast paths.
func (f *flatClock) Ver() uint64 { return f.mut }

// HasEntryOtherThan reports whether any component other than t is nonzero
// (the sticky foreign-component test behind transaction GC).
func (f *flatClock) HasEntryOtherThan(t int) bool {
	return f.nz >= 2 || (f.nz == 1 && f.c.At(t) == 0)
}

// Flat copies the vector out (white-box accessors, tests).
func (f *flatClock) Flat() vc.Clock { return f.c.Copy() }
