package vc

// Sparse is a sparse vector time: an unsorted association list of
// (thread, time) pairs that promotes itself to a dense Clock once it holds
// more than PromoteThreshold entries. It is the representation of the ȒR_x
// accumulators across every engine: ȒR_x is read only through single
// components and written only through zeroing joins, and on real workloads
// a given variable is read by very few distinct threads, so the common case
// is a two- or three-entry list instead of an O(|Thr|) vector. Adversarial
// traces that touch a variable from many threads pay one promotion and then
// dense-clock costs, never worse than the flat representation they replace.
//
// The zero value is ⊥ and ready for use. Sparse values are mutated through
// pointer methods and must not be copied after first use.
type Sparse struct {
	tids  []int32
	times []Time
	dense Clock // non-nil once promoted; tids/times are nil from then on
	// promCount, when non-nil, is incremented once per promotion. Engines
	// point every ȒR_x accumulator they allocate at one per-engine counter
	// (CountPromotionsInto), so promotion rates are attributable per
	// engine instead of vanishing into a process-global.
	promCount *int64
}

// PromoteThreshold is the entry count beyond which Sparse switches to a
// dense Clock: past this size the linear scans of the association list
// stop beating the dense representation's O(1) indexing.
//
// The value is pinned by the bench-backed sweep in
// internal/core/sparse_sweep_test.go (read-heavy traces with 8–48 distinct
// readers per variable, thresholds 4–32). Measured shape: thresholds 4–8
// lose 15–25% at 8 readers (they promote variables that would have stayed
// sparse), 12–24 sit on a plateau at every width, and the curve is flat
// within noise at 16–48 readers. 16 is the plateau point that also keeps
// the 13–16-reader band sparse — the band the previous default of 12
// promoted early (ROADMAP PR 2 open item). Mutable only so the sweep can
// exercise alternatives; production code must treat it as a constant.
var PromoteThreshold = 16

// At returns component t (0 when absent).
func (s *Sparse) At(t int) Time {
	if s.dense != nil {
		return s.dense.At(t)
	}
	for i, id := range s.tids {
		if int(id) == t {
			return s.times[i]
		}
	}
	return 0
}

// JoinComponent sets component t to max(current, v): the single-component
// form of a join.
func (s *Sparse) JoinComponent(t int, v Time) {
	if v == 0 {
		return
	}
	if s.dense != nil {
		if v > s.dense.At(t) {
			s.dense = s.dense.Set(t, v)
		}
		return
	}
	for i, id := range s.tids {
		if int(id) == t {
			if v > s.times[i] {
				s.times[i] = v
			}
			return
		}
	}
	if len(s.tids) >= PromoteThreshold {
		s.promote()
		s.dense = s.dense.Set(t, v)
		return
	}
	s.tids = append(s.tids, int32(t))
	s.times = append(s.times, v)
}

// CountPromotionsInto points s's promotion counter at c (nil detaches).
// The counter is bumped without synchronization; callers own the
// engine-per-goroutine discipline.
func (s *Sparse) CountPromotionsInto(c *int64) { s.promCount = c }

// promote converts the association list into a dense Clock.
func (s *Sparse) promote() {
	var d Clock
	for i, id := range s.tids {
		d = d.Set(int(id), s.times[i])
	}
	s.dense = d
	s.tids, s.times = nil, nil
	if s.promCount != nil {
		*s.promCount++
	}
}

// JoinZeroing joins d[0/skip] into s: the ȒR_x ⊔= C_t[0/t] update for flat
// clock sources.
func (s *Sparse) JoinZeroing(d Clock, skip int) {
	if s.dense != nil {
		s.dense = s.dense.JoinZeroing(d, skip)
		return
	}
	// A source carrying more nonzero components than the promotion
	// threshold forces a promotion anyway; doing it up front replaces an
	// association-list scan per component with one bulk dense join. The
	// skipped lane is not joined, so it does not count.
	nz := 0
	for i, v := range d {
		if v != 0 && i != skip {
			nz++
		}
	}
	if nz > PromoteThreshold {
		s.promote()
		s.dense = s.dense.JoinZeroing(d, skip)
		return
	}
	for i, v := range d {
		if i == skip || v == 0 {
			continue
		}
		s.JoinComponent(i, v) // may promote mid-loop; JoinComponent handles it
	}
}

// Len returns the number of explicitly stored entries (white-box: tests and
// promotion diagnostics). Dense entries count nonzero components only.
func (s *Sparse) Len() int {
	if s.dense != nil {
		n := 0
		for _, v := range s.dense {
			if v != 0 {
				n++
			}
		}
		return n
	}
	return len(s.tids)
}

// IsDense reports whether the sparse encoding has promoted itself to a
// dense clock (white-box accessor for tests).
func (s *Sparse) IsDense() bool { return s.dense != nil }

// Flat snapshots the represented vector as a fresh dense Clock.
func (s *Sparse) Flat() Clock {
	if s.dense != nil {
		return s.dense.Copy()
	}
	var out Clock
	for i, id := range s.tids {
		if s.times[i] != 0 {
			out = out.Set(int(id), s.times[i])
		}
	}
	return out
}

// String renders the represented vector in the paper's ⟨…⟩ notation.
func (s *Sparse) String() string { return s.Flat().String() }
