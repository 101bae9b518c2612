// Online monitor: attach AeroDrome to a *running* concurrent Go program.
//
// A tiny work-stealing job system executes "atomic" task handlers; the
// handlers report their shared-state accesses to an aerodrome.Monitor. One
// handler has a read-modify-write split across a lock release/reacquire —
// the monitor flags the violation while the program runs, demonstrating the
// online (single-pass, streaming) nature of the algorithm: no trace is
// stored anywhere.
//
//	go run ./examples/onlinemonitor
package main

import (
	"fmt"
	"sync"

	"aerodrome"
)

// counterService is shared state: a map of counters protected by one mutex.
type counterService struct {
	mu     sync.Mutex
	values map[string]int
}

// buggyIncrement releases the lock between the read and the write: each
// access is race-free, but the "increment" block is not atomic.
func (s *counterService) buggyIncrement(m aerodrome.Thread, key string) {
	m.Begin()
	defer m.End()

	s.mu.Lock()
	m.Acquire(&s.mu)
	m.Read(key)
	v := s.values[key]
	m.Release(&s.mu)
	s.mu.Unlock()

	// Window for interleaving: another goroutine can increment here, and
	// its update is lost.
	s.mu.Lock()
	m.Acquire(&s.mu)
	m.Write(key)
	s.values[key] = v + 1
	m.Release(&s.mu)
	s.mu.Unlock()
}

func main() {
	var violation *aerodrome.Violation
	var once sync.Once
	monitor := aerodrome.NewMonitor(aerodrome.Options{Algorithm: aerodrome.Optimized},
		func(v *aerodrome.Violation) {
			once.Do(func() { violation = v })
		})

	svc := &counterService{values: map[string]int{}}

	// A rendezvous that forces the racy interleaving deterministically:
	// worker A reads, then lets worker B run a full increment, then writes.
	aRead := make(chan struct{})
	bDone := make(chan struct{})

	main := monitor.Thread("main")
	var wg sync.WaitGroup
	wg.Add(2)

	aThread, _ := main.Fork("worker-A")
	go func() {
		defer wg.Done()
		m := aThread
		m.Begin()
		svc.mu.Lock()
		m.Acquire(&svc.mu)
		m.Read("hits")
		v := svc.values["hits"]
		m.Release(&svc.mu)
		svc.mu.Unlock()

		close(aRead) // let B run its whole increment in our window
		<-bDone

		svc.mu.Lock()
		m.Acquire(&svc.mu)
		m.Write("hits")
		svc.values["hits"] = v + 1
		m.Release(&svc.mu)
		svc.mu.Unlock()
		m.End()
	}()

	bThread, _ := main.Fork("worker-B")
	go func() {
		defer wg.Done()
		<-aRead
		svc.buggyIncrement(bThread, "hits")
		close(bDone)
	}()

	wg.Wait()
	fmt.Printf("final counter: hits=%d (two increments ran; one was lost)\n", svc.values["hits"])
	fmt.Printf("monitor observed %d events\n", monitor.Events())
	if violation == nil {
		violation = monitor.Violation()
	}
	if violation != nil {
		fmt.Printf("atomicity violation detected online: %v\n", violation)
	} else {
		fmt.Println("no violation detected (unexpected for this interleaving)")
	}
}
