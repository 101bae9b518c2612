package obs

// Histogram is an HDR-style log-linear latency histogram: microsecond
// values bucketed exactly below 64µs and with 32 sub-buckets per octave
// above, bounding relative quantile error at ~3% while keeping the
// whole structure a fixed array of atomics — recorders run concurrently
// with no locks and no allocation, so the measurement cannot perturb
// the tail it reports. It backs the server's per-stage latency metrics
// (GET /metrics and its Prometheus exposition), where recording on the
// request path must cost nanoseconds, and its p50, p99 and p999 stay
// within ±5% of the exact quantiles (TestHistQuantiles).

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits is log2 of the sub-buckets per octave.
	histSubBits = 5
	// histLinear is the exact-count region: values below it get their own
	// bucket.
	histLinear = 1 << (histSubBits + 1)
	// histSize covers ~2^36 µs (≈ 19 hours) before clamping to the last
	// bucket — far past any latency this process can observe.
	histSize = 1024
)

// Histogram buckets microsecond values. The zero value is ready to use.
type Histogram struct {
	counts [histSize]atomic.Int64
	total  atomic.Int64
	// sum accumulates recorded microseconds, so Prometheus exposition
	// can report the conventional _sum/_count pair (and consumers can
	// derive exact means, which quantile midpoints alone cannot give).
	sum atomic.Int64
}

// bucketIndex maps a microsecond value to its bucket: identity below
// histLinear, then octave*32 + top-6-bits above, which lines up exactly
// with the linear region (v=63 → 63, v=64 → 64).
func bucketIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - (histSubBits + 1)
	i := int(exp)<<histSubBits + int(v>>exp)
	if i >= histSize {
		return histSize - 1
	}
	return i
}

// bucketMid returns a representative (midpoint) value for a bucket.
func bucketMid(i int) uint64 {
	if i < histLinear {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) - 1
	m := uint64(i) - uint64(exp)<<histSubBits
	return m<<exp + 1<<exp/2
}

// bucketUpper returns the largest microsecond value a bucket can hold —
// the inclusive upper bound Prometheus `le` labels want.
func bucketUpper(i int) uint64 {
	if i < histLinear {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) - 1
	m := uint64(i) - uint64(exp)<<histSubBits
	return (m+1)<<exp - 1
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketIndex(uint64(us))].Add(1)
	h.total.Add(1)
	h.sum.Add(us)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the total recorded latency.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sum.Load()) * time.Microsecond
}

// Quantile returns the q-quantile (0 < q ≤ 1) in milliseconds, or 0
// with no observations. Concurrent Records move the answer by at most
// the in-flight observations; callers quiesce workers before reading.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histSize; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return float64(bucketMid(i)) / 1e3
		}
	}
	return float64(bucketMid(histSize-1)) / 1e3
}
