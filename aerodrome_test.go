package aerodrome_test

import (
	"strings"
	"sync"
	"testing"

	"aerodrome"
)

// rho2 returns the paper's Figure 2 trace through the public API.
func rho2() []aerodrome.Event {
	return []aerodrome.Event{
		{Thread: 0, Kind: aerodrome.TxBegin},
		{Thread: 1, Kind: aerodrome.TxBegin},
		{Thread: 0, Kind: aerodrome.OpWrite, Target: 0},
		{Thread: 1, Kind: aerodrome.OpRead, Target: 0},
		{Thread: 1, Kind: aerodrome.OpWrite, Target: 1},
		{Thread: 0, Kind: aerodrome.OpRead, Target: 1},
		{Thread: 0, Kind: aerodrome.TxEnd},
		{Thread: 1, Kind: aerodrome.TxEnd},
	}
}

func rho1() []aerodrome.Event {
	return []aerodrome.Event{
		{Thread: 0, Kind: aerodrome.TxBegin},
		{Thread: 0, Kind: aerodrome.OpWrite, Target: 0},
		{Thread: 1, Kind: aerodrome.TxBegin},
		{Thread: 1, Kind: aerodrome.OpRead, Target: 0},
		{Thread: 1, Kind: aerodrome.TxEnd},
		{Thread: 2, Kind: aerodrome.TxBegin},
		{Thread: 2, Kind: aerodrome.OpWrite, Target: 1},
		{Thread: 2, Kind: aerodrome.TxEnd},
		{Thread: 0, Kind: aerodrome.OpRead, Target: 1},
		{Thread: 0, Kind: aerodrome.TxEnd},
	}
}

func TestCheckEventsAllAlgorithms(t *testing.T) {
	for _, algo := range aerodrome.Algorithms() {
		rep, err := aerodrome.CheckEvents(rho2(), algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.Serializable || rep.Violation == nil {
			t.Errorf("%s: rho2 must violate", algo)
		}
		rep, err = aerodrome.CheckEvents(rho1(), algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !rep.Serializable || rep.Violation != nil {
			t.Errorf("%s: rho1 must be serializable", algo)
		}
		if rep.Events != int64(len(rho1())) {
			t.Errorf("%s: consumed %d events, want %d", algo, rep.Events, len(rho1()))
		}
	}
}

func TestCheckerConvenienceMethods(t *testing.T) {
	c := aerodrome.NewChecker(aerodrome.Basic)
	if v := c.Begin(0); v != nil {
		t.Fatal(v)
	}
	c.Begin(1)
	c.Write(0, 0)
	c.Read(1, 0)
	c.Write(1, 1)
	v := c.Read(0, 1)
	if v == nil {
		t.Fatalf("rho2 via methods must violate")
	}
	if v.EventIndex != 5 || v.Check != "read-after-write" || v.Thread != 0 {
		t.Fatalf("violation = %+v", v)
	}
	if c.Violation() != v {
		t.Fatalf("Violation() must return the latch")
	}
	if got := v.Error(); !strings.Contains(got, "event 5") {
		t.Fatalf("Error() = %q", got)
	}
	// Latched: further events return the same violation.
	if c.End(0) != v {
		t.Fatalf("latch broken")
	}
	if c.Processed() != 6 {
		t.Fatalf("Processed = %d", c.Processed())
	}
}

func TestForkJoinAcquireRelease(t *testing.T) {
	c := aerodrome.NewChecker(aerodrome.Optimized)
	c.Fork(0, 1)
	c.Begin(1)
	c.Acquire(1, 0)
	c.Write(1, 0)
	c.Release(1, 0)
	c.End(1)
	if v := c.Join(0, 1); v != nil {
		t.Fatalf("clean fork/join: %v", v)
	}
}

func TestNewCheckerErrUnknown(t *testing.T) {
	if _, err := aerodrome.NewCheckerErr("bogus"); err == nil {
		t.Fatalf("unknown algorithm must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewChecker must panic on unknown algorithm")
		}
	}()
	aerodrome.NewChecker("bogus")
}

func TestCheckEventsUnknownAlgorithm(t *testing.T) {
	if _, err := aerodrome.CheckEvents(rho1(), "bogus"); err == nil {
		t.Fatalf("unknown algorithm must error")
	}
	if _, err := aerodrome.CheckEvents([]aerodrome.Event{{Kind: 99}}, aerodrome.Basic); err == nil {
		t.Fatalf("unknown event kind must error")
	}
}

func TestCheckSTD(t *testing.T) {
	log := `t1|begin|0
t2|begin|0
t1|w(x)|0
t2|r(x)|0
t2|w(y)|0
t1|r(y)|0
t1|end|0
t2|end|0
`
	rep, err := aerodrome.CheckSTD(strings.NewReader(log), aerodrome.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Serializable {
		t.Fatalf("STD rho2 must violate")
	}
	if _, err := aerodrome.CheckSTD(strings.NewReader("garbage"), aerodrome.Optimized); err == nil {
		t.Fatalf("malformed STD must error")
	}
	if _, err := aerodrome.CheckSTD(strings.NewReader(log), "bogus"); err == nil {
		t.Fatalf("unknown algorithm must error")
	}
}

func TestMonitorBasics(t *testing.T) {
	var cbViolation *aerodrome.Violation
	m := aerodrome.NewMonitor(
		aerodrome.WithAlgorithm(aerodrome.Optimized),
		aerodrome.OnViolation(func(v *aerodrome.Violation) { cbViolation = v }),
	)
	t1 := m.Thread("t1")
	t2 := m.Thread("t2")
	if m.Thread("t1") != t1 {
		t.Fatalf("thread handles must be stable")
	}

	t1.Begin()
	t2.Begin()
	t1.Write("x")
	t2.Read("x")
	t2.Write("y")
	v := t1.Read("y")
	if v == nil {
		t.Fatalf("monitor must catch rho2")
	}
	if cbViolation != v {
		t.Fatalf("callback must fire with the violation")
	}
	if m.Violation() != v {
		t.Fatalf("Violation() accessor broken")
	}
	if m.Events() != 6 {
		t.Fatalf("Events = %d, want 6", m.Events())
	}
}

func TestMonitorForkJoinLocks(t *testing.T) {
	m := aerodrome.NewMonitor()
	main := m.Thread("main")
	child, v := main.Fork("child")
	if v != nil {
		t.Fatal(v)
	}
	child.Begin()
	child.Acquire("mu")
	child.Write("shared")
	child.Release("mu")
	child.End()
	if v := main.Join(child); v != nil {
		t.Fatalf("clean monitor fork/join: %v", v)
	}
}

func TestMonitorConcurrentUse(t *testing.T) {
	// Hammer the monitor from several goroutines on disjoint state: no
	// violation, no race (run with -race in CI).
	m := aerodrome.NewMonitor()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := m.Thread(g)
			for i := 0; i < 200; i++ {
				th.Begin()
				th.Read(g * 1000)
				th.Write(g*1000 + i%7)
				th.End()
			}
		}(g)
	}
	wg.Wait()
	if v := m.Violation(); v != nil {
		t.Fatalf("disjoint state must not violate: %v", v)
	}
	if m.Events() != 8*200*4 {
		t.Fatalf("Events = %d", m.Events())
	}
}

func TestMonitorUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown algorithm must panic")
		}
	}()
	aerodrome.NewMonitor(aerodrome.WithAlgorithm("bogus"))
}

func TestAlgorithmsList(t *testing.T) {
	got := aerodrome.Algorithms()
	if len(got) != 6 {
		t.Fatalf("Algorithms() = %v", got)
	}
	names := map[string]bool{}
	for _, a := range got {
		c, err := aerodrome.NewCheckerErr(a)
		if err != nil {
			t.Fatalf("listed algorithm %q must construct: %v", a, err)
		}
		if names[c.Algorithm()] {
			t.Fatalf("listed algorithm %q repeats engine %s", a, c.Algorithm())
		}
		names[c.Algorithm()] = true
	}
	// The names of the removed clock representations stay accepted and
	// run the Algorithm 3 engine.
	for _, a := range []aerodrome.Algorithm{"auto", "hybrid", "treeclock"} {
		c, err := aerodrome.NewCheckerErr(a)
		if err != nil {
			t.Fatalf("alias %q must construct: %v", a, err)
		}
		if c.Algorithm() != "aerodrome-optimized" {
			t.Fatalf("alias %q runs %s, want aerodrome-optimized", a, c.Algorithm())
		}
	}
}
