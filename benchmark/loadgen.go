package main

// The benchmark's own open-loop generator. It does not reuse the
// repository's load harness on purpose: a later change may edit that
// harness, and the parent and the change must always be driven by the same
// generator.

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate (per second) over d. The schedule is a pure function of its
// arguments.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// sample is one completed arrival: when it was due and how long after that
// its answer came back.
type sample struct {
	at time.Duration
	ms float64
}

// loadResult summarizes one open-loop phase.
type loadResult struct {
	arrivals int
	samples  []sample
	failed   int   // refused or errored
	debt     int   // gave up: the connection's queue was full at arrival
	err      error // first failure, for the log
	wrong    error // first verdict mismatch; voids the run
	maxLag   time.Duration
}

func (r loadResult) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.ms
	}
	return out
}

// halfMedians returns the median latency of the arrivals due in the first
// and in the second half of a phase of length d.
func (r loadResult) halfMedians(d time.Duration) (first, second float64) {
	var a, b []float64
	for _, s := range r.samples {
		if s.at < d/2 {
			a = append(a, s.ms)
		} else {
			b = append(b, s.ms)
		}
	}
	return median(a), median(b)
}

// queueCap bounds each connection's backlog. At the fixed rates (at most
// ~70% of capacity) a backlog this deep needs a stall of well over a
// second, so debt there means the box, not the system, stalled; above
// capacity the cap turns the unbounded backlog into counted debt.
const queueCap = 256

// openLoop sends the arrivals of sched over conns connections without ever
// waiting for the system: the dispatcher queues arrival i at its scheduled
// time — on connection route(i), or on one queue all connections share
// when route is nil — and an arrival that finds its queue full is given
// up and counted as debt. Each connection runs one request at a time.
// Latency runs from the scheduled time, so a stall is charged to every
// arrival it delays. do is handed the arrival's due time and returns when
// its answer arrived (it may go on with follow-up work on the same
// connection before returning), a *mismatch for a wrong verdict and any
// other error for a failed request.
func openLoop(sched []time.Duration, conns int, route func(i int) int, do func(conn, i int, due time.Time) (time.Time, error)) loadResult {
	nq := conns
	if route == nil {
		nq = 1
		route = func(int) int { return 0 }
	}
	queues := make([]chan int, nq)
	for q := range queues {
		queues[q] = make(chan int, queueCap)
	}
	res := loadResult{arrivals: len(sched)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c%nq] {
				due := start.Add(sched[i])
				done, err := do(c, i, due)
				ms := float64(done.Sub(due)) / 1e6
				mu.Lock()
				res.record(sample{sched[i], ms}, err)
				mu.Unlock()
			}
		}(c)
	}
	for i, at := range sched {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(start.Add(at)); lag > res.maxLag {
			res.maxLag = lag
		}
		select {
		case queues[route(i)] <- i:
		default:
			mu.Lock()
			res.debt++
			mu.Unlock()
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return res
}

// record files one finished arrival. Callers hold the result's lock.
func (r *loadResult) record(s sample, err error) {
	if err == nil {
		r.samples = append(r.samples, s)
		return
	}
	if m, ok := err.(*mismatch); ok {
		if r.wrong == nil {
			r.wrong = m
		}
		return
	}
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// closedLoop keeps conns connections busy back to back for d and returns
// the units of work do reported (events checked) and the elapsed time.
func closedLoop(d time.Duration, conns int, do func(conn, k int) (int64, error)) (work int64, elapsed time.Duration, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				n, e := do(c, k)
				mu.Lock()
				work += n
				if e != nil && err == nil {
					err = e
				}
				failed := err != nil
				mu.Unlock()
				if failed {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return work, time.Since(start), err
}
