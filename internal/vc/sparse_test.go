package vc

import (
	"math/rand"
	"testing"
)

func TestSparseBasics(t *testing.T) {
	var s Sparse
	if s.At(3) != 0 || s.Len() != 0 || s.IsDense() {
		t.Fatalf("zero value not ⊥: %v", &s)
	}
	s.JoinComponent(3, 7)
	s.JoinComponent(3, 5) // lower: no-op
	s.JoinComponent(0, 1)
	s.JoinComponent(5, 0) // zero: no-op
	if s.At(3) != 7 || s.At(0) != 1 || s.At(5) != 0 {
		t.Fatalf("components: %v", &s)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Flat().Equal(Clock{1, 0, 0, 7}) {
		t.Fatalf("Flat = %v", s.Flat())
	}
}

func TestSparseJoinZeroing(t *testing.T) {
	var s Sparse
	s.JoinZeroing(Clock{4, 0, 2, 9}, 2)
	if s.At(0) != 4 || s.At(2) != 0 || s.At(3) != 9 {
		t.Fatalf("zeroing join: %v", &s)
	}
	s.JoinZeroing(Clock{1, 6, 5}, -1)
	if s.At(0) != 4 || s.At(1) != 6 || s.At(2) != 5 {
		t.Fatalf("second join: %v", &s)
	}
}

func TestSparsePromotion(t *testing.T) {
	var s Sparse
	for i := 0; i < PromoteThreshold; i++ {
		s.JoinComponent(i*3, Time(i+1))
	}
	if s.IsDense() {
		t.Fatalf("promoted too early at %d entries", s.Len())
	}
	s.JoinComponent(100, 42)
	if !s.IsDense() {
		t.Fatalf("not promoted past %d entries", PromoteThreshold)
	}
	for i := 0; i < PromoteThreshold; i++ {
		if s.At(i*3) != Time(i+1) {
			t.Fatalf("entry %d lost in promotion: %v", i*3, &s)
		}
	}
	if s.At(100) != 42 {
		t.Fatalf("post-promotion entry: %v", &s)
	}
}

// TestSparseJoinZeroingPromotionBoundary pins the up-front promotion of a
// zeroing join to the lanes it actually joins: a source with exactly
// PromoteThreshold nonzero lanes besides skip stays sparse whether or not
// the skipped lane is set, and one more lane promotes in both cases.
func TestSparseJoinZeroingPromotionBoundary(t *testing.T) {
	const skip = 5
	for _, tc := range []struct {
		lanes    int // nonzero lanes other than skip
		skipSet  bool
		promoted bool
	}{
		{PromoteThreshold, false, false},
		{PromoteThreshold, true, false},
		{PromoteThreshold + 1, false, true},
		{PromoteThreshold + 1, true, true},
	} {
		src := make(Clock, tc.lanes+1)
		for i := range src {
			if i != skip {
				src[i] = Time(i + 1)
			}
		}
		if tc.skipSet {
			src[skip] = 99
		}
		var s Sparse
		s.JoinZeroing(src, skip)
		if s.IsDense() != tc.promoted {
			t.Errorf("%d lanes, skip lane set %v: dense = %v, want %v",
				tc.lanes, tc.skipSet, s.IsDense(), tc.promoted)
		}
		if s.Len() != tc.lanes || s.At(skip) != 0 {
			t.Errorf("%d lanes, skip lane set %v: Len %d, At(skip) %d",
				tc.lanes, tc.skipSet, s.Len(), s.At(skip))
		}
	}
}

// TestSparseAgainstDense drives random single-component and zeroing joins
// through Sparse and a dense Clock in lockstep.
func TestSparseAgainstDense(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		r := rand.New(rand.NewSource(int64(9000 + iter)))
		var s Sparse
		var d Clock
		for step := 0; step < 120; step++ {
			switch r.Intn(3) {
			case 0:
				tid, v := r.Intn(40), Time(r.Intn(50))
				s.JoinComponent(tid, v)
				if v > d.At(tid) {
					d = d.Set(tid, v)
				}
			case 1:
				src := make(Clock, r.Intn(20))
				for i := range src {
					src[i] = Time(r.Intn(30))
				}
				skip := r.Intn(len(src)+1) - 1
				s.JoinZeroing(src, skip)
				d = d.JoinZeroing(src, skip)
			case 2:
				tid := r.Intn(45)
				if s.At(tid) != d.At(tid) {
					t.Fatalf("iter %d step %d: At(%d) = %d, dense %d", iter, step, tid, s.At(tid), d.At(tid))
				}
			}
		}
		if !s.Flat().Equal(d) {
			t.Fatalf("iter %d: sparse %v dense %v", iter, s.Flat(), d)
		}
	}
}
