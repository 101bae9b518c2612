// Package vc implements vector clocks (vector times) as used by the
// AeroDrome conflict-serializability checker.
//
// A vector time is a map from thread indices to non-negative integer local
// times, represented densely as a slice. Clocks grow on demand: indices
// beyond the current length are implicitly zero, which lets checkers handle
// dynamic thread creation without knowing the final thread count up front.
//
// The operations mirror the paper's notation:
//
//	V1 ⊑ V2   → V1.Leq(V2)
//	V1 ⊔ V2   → V1.Join(V2)        (in place on the receiver)
//	V[c/t]    → V.WithEntry(t, c)  (copying) or V.Set(t, c) (mutating)
//	⊥         → New(0) or the zero value Clock(nil)
//	⊥[1/t]    → Unit(t)
package vc

import (
	"fmt"
	"strings"
)

// Time is the integer local-time component of a vector clock. Events in a
// trace increment per-thread components only at transaction-begin events, so
// even multi-billion event traces fit comfortably in 64 bits (the paper's
// "single word" assumption).
type Time = int64

// Clock is a vector time. The zero value (nil) is ⊥, the minimum vector
// time. Index i holds the local time of thread i; indices beyond len are
// implicitly zero.
type Clock []Time

// New returns a fresh all-zero clock with capacity for n threads.
func New(n int) Clock {
	if n <= 0 {
		return nil
	}
	return make(Clock, n)
}

// Unit returns ⊥[1/t]: the clock that is zero everywhere except component t,
// which is 1. This is the initial clock of thread t in AeroDrome. The
// backing array is pre-sized: thread clocks immediately absorb other
// threads' components, so allocating room for them up front avoids the
// grow-reallocate churn of long traces.
func Unit(t int) Clock {
	c := make(Clock, t+1, sizeCap(t+1))
	c[t] = 1
	return c
}

// sizeCap rounds a requested length up to a reallocation-friendly
// capacity: at least minCap, then the next power of two.
func sizeCap(n int) int {
	c := minCap
	for c < n {
		c <<= 1
	}
	return c
}

// minCap is the smallest backing-array capacity Grow and Unit allocate.
const minCap = 8

// At returns component t, treating missing components as zero.
func (c Clock) At(t int) Time {
	if t < 0 || t >= len(c) {
		return 0
	}
	return c[t]
}

// Set assigns component t, growing the clock as needed, and returns the
// possibly reallocated clock (append semantics, like the built-in append).
func (c Clock) Set(t int, v Time) Clock {
	c = c.Grow(t + 1)
	c[t] = v
	return c
}

// WithEntry returns a copy of c with component t replaced by v. This is the
// paper's V[v/t] operation.
func (c Clock) WithEntry(t int, v Time) Clock {
	n := len(c)
	if t+1 > n {
		n = t + 1
	}
	out := make(Clock, n)
	copy(out, c)
	out[t] = v
	return out
}

// WithZero returns a copy of c with component t zeroed: V[0/t].
func (c Clock) WithZero(t int) Clock {
	out := make(Clock, len(c))
	copy(out, c)
	if t >= 0 && t < len(out) {
		out[t] = 0
	}
	return out
}

// Copy returns an independent copy of c.
func (c Clock) Copy() Clock {
	if c == nil {
		return nil
	}
	out := make(Clock, len(c))
	copy(out, c)
	return out
}

// CopyInto overwrites dst with the contents of c, reusing dst's storage when
// possible, and returns the resulting clock.
func (c Clock) CopyInto(dst Clock) Clock {
	dst = dst[:0]
	return append(dst, c...)
}

// Leq reports whether c ⊑ d, i.e. every component of c is ≤ the matching
// component of d (missing components are zero).
func (c Clock) Leq(d Clock) bool {
	for i, v := range c {
		if v == 0 {
			continue
		}
		if i >= len(d) || v > d[i] {
			return false
		}
	}
	return true
}

// LeqZeroing reports whether c[0/skip] ⊑ d, i.e. Leq ignoring component
// skip of c. Used by the optimized engine's ȒR check and the incoming-edge
// test without materializing a zeroed copy.
func (c Clock) LeqZeroing(d Clock, skip int) bool {
	for i, v := range c {
		if v == 0 || i == skip {
			continue
		}
		if i >= len(d) || v > d[i] {
			return false
		}
	}
	return true
}

// Join sets c to c ⊔ d component-wise and returns the possibly reallocated
// clock. d is not modified.
func (c Clock) Join(d Clock) Clock {
	if len(d) > len(c) {
		c = c.Grow(len(d))
	}
	dst := c[:len(d)]
	for i, v := range d {
		dst[i] = max(dst[i], v) // branchless: no per-lane misprediction
	}
	return c
}

// JoinZeroing sets c to c ⊔ d[0/skip] and returns the possibly reallocated
// clock: a join that ignores component skip of d. This implements the
// ȒRx := ȒRx ⊔ C_t[0/t] updates of Algorithms 2 and 3 without allocating.
// It runs as two branchless joins on either side of skip.
func (c Clock) JoinZeroing(d Clock, skip int) Clock {
	if len(d) > len(c) {
		c = c.Grow(len(d))
	}
	if skip < 0 || skip >= len(d) {
		return c.Join(d)
	}
	c[:skip].Join(d[:skip])
	c[skip+1 : len(d)].Join(d[skip+1:])
	return c
}

// Equal reports whether c and d denote the same vector time (missing
// components are zero).
func (c Clock) Equal(d Clock) bool {
	return c.Leq(d) && d.Leq(c)
}

// EqualZeroing reports whether c[0/skip] and d[0/skip] denote the same
// vector time. Used by the optimized engine's hasIncomingEdge test
// (C⊲_t[0/t] ≠ C_t[0/t]).
func (c Clock) EqualZeroing(d Clock, skip int) bool {
	return c.LeqZeroing(d, skip) && d.LeqZeroing(c, skip)
}

// Lt reports whether c ⊑ d and c ≠ d (strictly before).
func (c Clock) Lt(d Clock) bool {
	return c.Leq(d) && !d.Leq(c)
}

// Concurrent reports whether neither c ⊑ d nor d ⊑ c.
func (c Clock) Concurrent(d Clock) bool {
	return !c.Leq(d) && !d.Leq(c)
}

// Inc increments component t by one, growing the clock as needed, and
// returns the possibly reallocated clock.
func (c Clock) Inc(t int) Clock {
	c = c.Grow(t + 1)
	c[t]++
	return c
}

// IsZero reports whether c is ⊥ (all components zero).
func (c Clock) IsZero() bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// Dim returns the number of explicitly stored components.
func (c Clock) Dim() int { return len(c) }

// Grow extends c with zeros so that len(c) ≥ n, reallocating at most once
// (and to a power-of-two capacity, so repeated one-component growth does
// not reallocate per call). Slices resliced within capacity are explicitly
// zeroed: CopyInto shrinks via c[:0], which can leave stale values in the
// backing array.
func (c Clock) Grow(n int) Clock {
	if n <= len(c) {
		return c
	}
	if n <= cap(c) {
		d := c[:n]
		for i := len(c); i < n; i++ {
			d[i] = 0
		}
		return d
	}
	d := make(Clock, n, sizeCap(n))
	copy(d, c)
	return d
}

// String renders the clock in the paper's ⟨a,b,c⟩ notation. Trailing zero
// components are preserved so the dimension is visible.
func (c Clock) String() string {
	var sb strings.Builder
	sb.WriteString("⟨")
	for i, v := range c {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	sb.WriteString("⟩")
	return sb.String()
}

// Truncated renders the clock padded or truncated to exactly dim components,
// matching the fixed-width presentation of the paper's figures.
func (c Clock) Truncated(dim int) string {
	var sb strings.Builder
	sb.WriteString("⟨")
	for i := 0; i < dim; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%d", c.At(i))
	}
	sb.WriteString("⟩")
	return sb.String()
}
