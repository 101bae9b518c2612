package aerodrome_test

// Concurrency stress tests for Monitor, meant to run under -race: many
// goroutines hammer one monitor through the full operation surface
// (thread registration, begins/ends, reads/writes, lock ops), and the
// observable invariants are checked afterwards — exact event accounting,
// at-most-once onViolation delivery, and agreement between the callback
// and Violation(). No such test existed before this suite; the monitor's
// single-mutex design makes it easy to believe and easy to regress.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aerodrome"
)

// TestMonitorConcurrentStressSerializable: thread-private transactions
// under a shared lock discipline are conflict serializable regardless of
// interleaving, so the monitor must report no violation, deliver no
// callback, and count every event exactly once.
func TestMonitorConcurrentStressSerializable(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 200
		opsPerTxn  = 4
	)
	var calls atomic.Int32
	m := aerodrome.NewMonitor(aerodrome.Options{Algorithm: aerodrome.Optimized},
		func(*aerodrome.Violation) { calls.Add(1) })
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := m.Thread(g)
			var n int64
			for r := 0; r < rounds; r++ {
				th.Begin()
				th.Acquire("L")
				n += 2
				for i := 0; i < opsPerTxn; i++ {
					key := fmt.Sprintf("x%d_%d", g, i)
					if (r+i)%2 == 0 {
						th.Write(key)
					} else {
						th.Read(key)
					}
					n++
				}
				th.Release("L")
				th.End()
				n += 2
			}
			total.Add(n)
		}(g)
	}
	wg.Wait()
	if v := m.Violation(); v != nil {
		t.Fatalf("serializable workload reported violation: %v", v)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("onViolation called %d times on a serializable workload", got)
	}
	if got, want := m.Events(), total.Load(); got != want {
		t.Fatalf("event count %d, want %d", got, want)
	}
}

// TestMonitorViolationDeliveredAtMostOnce: goroutines race conflicting
// cross-transaction accesses (which may or may not close a cycle,
// depending on the schedule), then a deterministic ρ2-shaped coda forces a
// violation if none occurred. Across every schedule the callback must fire
// exactly once, agree with Violation(), and latch.
func TestMonitorViolationDeliveredAtMostOnce(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		var calls atomic.Int32
		var seen atomic.Pointer[aerodrome.Violation]
		m := aerodrome.NewMonitor(aerodrome.Options{}, func(v *aerodrome.Violation) {
			calls.Add(1)
			seen.Store(v)
		})
		const goroutines = 8
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := m.Thread(g)
				for r := 0; r < 50; r++ {
					th.Begin()
					th.Write(fmt.Sprintf("shared%d", r%4))
					th.Read(fmt.Sprintf("shared%d", (r+1)%4))
					th.End()
				}
			}(g)
		}
		wg.Wait()
		if m.Violation() == nil {
			// Deterministic coda: a guaranteed ρ2 cross on fresh variables.
			ta, tb := m.Thread("coda-a"), m.Thread("coda-b")
			ta.Begin()
			ta.Write("coda-x")
			tb.Begin()
			tb.Read("coda-x")
			tb.Write("coda-y")
			ta.Read("coda-y")
			ta.End()
			tb.End()
		}
		if m.Violation() == nil {
			t.Fatalf("iter %d: no violation after forced cross", iter)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("iter %d: onViolation called %d times, want exactly 1", iter, got)
		}
		if seen.Load() != m.Violation() {
			t.Fatalf("iter %d: callback saw %v, Violation() is %v", iter, seen.Load(), m.Violation())
		}
		// Latched: further events keep returning the same violation and
		// never re-fire the callback.
		th := m.Thread("after")
		if v := th.Write("z"); v != m.Violation() {
			t.Fatalf("iter %d: post-violation event returned %v", iter, v)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("iter %d: callback re-fired (%d calls)", iter, got)
		}
	}
}
