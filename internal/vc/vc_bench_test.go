package vc

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchClocks(dim int) (Clock, Clock) {
	a, b := New(dim), New(dim)
	for i := 0; i < dim; i++ {
		a[i] = Time(i * 3 % 17)
		b[i] = Time(i * 5 % 13)
	}
	return a, b
}

func BenchmarkLeq(b *testing.B) {
	for _, dim := range []int{4, 16, 64} {
		x, y := benchClocks(dim)
		y = y.Join(x) // make the comparison succeed (worst case scans all)
		b.Run(sizeName(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !x.Leq(y) {
					b.Fatal("unexpected")
				}
			}
		})
	}
}

func BenchmarkJoin(b *testing.B) {
	for _, dim := range []int{4, 16, 64, 256} {
		x, y := benchClocks(dim)
		b.Run(sizeName(dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x = x.Join(y)
			}
		})
	}
}

// BenchmarkJoinMixed joins random lanes into a fresh copy of the target
// each iteration, so whether a lane rises is unpredictable: the case where
// a per-lane branch mispredicts and the max-based loop does not.
func BenchmarkJoinMixed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, dim := range []int{64, 256} {
		x, y, dst := New(dim), New(dim), New(dim)
		for i := range x {
			x[i], y[i] = Time(r.Intn(100)), Time(r.Intn(100))
		}
		b.Run(sizeName(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = x.CopyInto(dst)
				dst = dst.Join(y)
			}
		})
	}
}

func BenchmarkJoinZeroing(b *testing.B) {
	for _, dim := range []int{4, 16, 64, 256} {
		x, y := benchClocks(dim)
		b.Run(sizeName(dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x = x.JoinZeroing(y, 2)
			}
		})
	}
}

func BenchmarkCopyInto(b *testing.B) {
	for _, dim := range []int{4, 16, 64} {
		x, _ := benchClocks(dim)
		dst := New(dim)
		b.Run(sizeName(dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = x.CopyInto(dst)
			}
		})
	}
}

func sizeName(dim int) string {
	return fmt.Sprintf("dim%d", dim)
}

func BenchmarkLeqZeroing(b *testing.B) {
	for _, dim := range []int{4, 16, 64, 256} {
		x, y := benchClocks(dim)
		y = y.Join(x) // worst case: the zeroing comparison scans everything
		b.Run(sizeName(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !x.LeqZeroing(y, 2) {
					b.Fatal("unexpected")
				}
			}
		})
	}
}

func BenchmarkGrow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var c Clock
		for n := 1; n <= 256; n <<= 1 {
			c = c.Grow(n)
		}
	}
}
