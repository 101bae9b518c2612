package core

import (
	"math/rand"
	"testing"

	"aerodrome/internal/vc"
)

// TestFlatClockJoinCounters pins the branchless flatClock.Join to its
// bookkeeping: the result is the componentwise max, nz counts the nonzero
// components, and the mutation counter moves exactly when the content
// changed (the epoch fast paths depend on both).
func TestFlatClockJoinCounters(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 500; iter++ {
		f := newFlatClock()
		f.InitUnit(r.Intn(8))
		for step := 0; step < 20; step++ {
			o := newFlatClock()
			o.c = make(vc.Clock, r.Intn(40))
			for i := range o.c {
				if r.Intn(3) == 0 {
					o.c[i] = vc.Time(r.Intn(6))
				}
			}
			want := f.c.Copy().Join(o.c)
			changed := !want.Equal(f.c)
			mut := f.mut
			f.Join(o)
			if !f.c.Equal(want) {
				t.Fatalf("iter %d: join = %v, want %v", iter, f.c, want)
			}
			nz := 0
			for _, v := range f.c {
				if v != 0 {
					nz++
				}
			}
			if f.nz != nz {
				t.Fatalf("iter %d: nz = %d, want %d (%v)", iter, f.nz, nz, f.c)
			}
			if (f.mut != mut) != changed {
				t.Fatalf("iter %d: mutation counter moved %v, content changed %v", iter, f.mut != mut, changed)
			}
		}
	}
}
