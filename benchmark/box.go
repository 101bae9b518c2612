package main

import (
	"crypto/sha256"
	"math/rand"
	"sync"
	"time"
)

// The box probe: a fixed piece of CPU and memory work, none of it the
// repository's code, timed while nothing else of the benchmark runs. Its
// time is how fast the box itself was at that moment, so a reader can tell
// a slow run of the system from a slow moment of a shared machine.

var probeState struct {
	once  sync.Once
	buf   []byte
	table []uint32
}

var probeSink byte

// probe runs the fixed work once and returns how long it took.
func probe() time.Duration {
	st := &probeState
	st.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		st.buf = make([]byte, 1<<20)
		rng.Read(st.buf)
		st.table = make([]uint32, 1<<21) // 8 MiB: beyond the caches
		for i := range st.table {
			st.table[i] = uint32(rng.Intn(len(st.table)))
		}
	})
	start := time.Now()
	for i := 0; i < 4; i++ {
		s := sha256.Sum256(st.buf)
		probeSink ^= s[0]
	}
	j := uint32(0)
	for i := 0; i < 200_000; i++ {
		j = st.table[j]
	}
	probeSink ^= byte(j)
	return time.Since(start)
}

// probeMs times the probe n times and returns each time in ms.
func probeMs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(probe()) / 1e6
	}
	return out
}
