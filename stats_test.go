package aerodrome_test

import (
	"fmt"
	"strings"
	"testing"

	"aerodrome"
)

// statsLog builds a serializable STD log that exercises the epoch fast
// path: one writer seeds a shared variable, then reader transactions
// read it several times each — the repeats within a transaction check
// the same unchanged write clock and hit the epoch cache.
func statsLog(threads, rounds int) string {
	var b strings.Builder
	b.WriteString("t0|begin|0\nt0|w(x)|0\nt0|end|0\n")
	for r := 0; r < rounds; r++ {
		for t := 1; t <= threads; t++ {
			fmt.Fprintf(&b, "t%d|begin|0\n", t)
			for i := 0; i < 4; i++ {
				fmt.Fprintf(&b, "t%d|r(x)|0\n", t)
			}
			fmt.Fprintf(&b, "t%d|w(y%d)|0\n", t, t)
			fmt.Fprintf(&b, "t%d|end|0\n", t)
		}
	}
	return b.String()
}

func TestCheckerStats(t *testing.T) {
	c := aerodrome.NewChecker(aerodrome.Optimized)
	c.Begin(0)
	c.Write(0, 0)
	c.End(0)
	for r := 0; r < 50; r++ {
		c.Begin(1)
		for i := 0; i < 4; i++ {
			c.Read(1, 0)
		}
		c.End(1)
	}
	s, ok := c.Stats()
	if !ok {
		t.Fatal("optimized checker must report stats")
	}
	if s.EpochHits == 0 {
		t.Fatalf("repeated same-thread accesses hit no epochs: %+v", s)
	}
	if rate := s.EpochHitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("hit rate %v outside (0,1]", rate)
	}

	v := aerodrome.NewChecker(aerodrome.Velodrome)
	if _, ok := v.Stats(); ok {
		t.Fatal("velodrome has no engine stats to report")
	}
}

// TestEngineStatsJoinsSkipped: a thread rewriting a variable it already
// absorbed R_x of skips the re-absorb, and the public stats carry the count
// through the conversion and through Add and Sub.
func TestEngineStatsJoinsSkipped(t *testing.T) {
	c := aerodrome.NewChecker(aerodrome.Optimized)
	for r := 0; r < 10; r++ {
		c.Begin(0)
		c.Write(0, 0)
		c.End(0)
	}
	s, ok := c.Stats()
	if !ok || s.JoinsSkipped == 0 {
		t.Fatalf("repeat writes skipped no joins: ok=%v %+v", ok, s)
	}
	var sum aerodrome.EngineStats
	sum.Add(s)
	sum.Add(s)
	if sum.JoinsSkipped != 2*s.JoinsSkipped || sum.Sub(s) != s {
		t.Fatalf("Add/Sub drop JoinsSkipped: sum %+v, one %+v", sum, s)
	}
}

func TestIncrementalCheckerStats(t *testing.T) {
	c, err := aerodrome.NewIncrementalChecker(aerodrome.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	log := statsLog(4, 100)
	for i := 0; i < len(log); i += 256 {
		end := i + 256
		if end > len(log) {
			end = len(log)
		}
		if _, err := c.Feed([]byte(log[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Serializable {
		t.Fatalf("statsLog must be serializable: %+v", rep.Violation)
	}
	s, ok := c.Stats()
	if !ok || s.EpochHits == 0 {
		t.Fatalf("no engine stats after %d events: ok=%v %+v", rep.Events, ok, s)
	}
	parse, check := c.StageTimes()
	if parse <= 0 || check <= 0 {
		t.Fatalf("stage times not accumulated: parse=%v check=%v", parse, check)
	}
}

func TestMonitorStats(t *testing.T) {
	m := aerodrome.NewMonitor()
	w := m.Thread("writer")
	w.Begin()
	w.Write("x")
	w.End()
	rd := m.Thread("reader")
	for r := 0; r < 50; r++ {
		rd.Begin()
		for i := 0; i < 4; i++ {
			rd.Read("x")
		}
		rd.End()
	}
	s, ok := m.Stats()
	if !ok || s.EpochHits == 0 {
		t.Fatalf("monitor stats missing: ok=%v %+v", ok, s)
	}
}

func TestCheckReaderPipelinedStats(t *testing.T) {
	rep, cs, err := aerodrome.CheckReaderPipelinedStats(
		strings.NewReader(statsLog(4, 200)), aerodrome.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Serializable {
		t.Fatalf("statsLog must be serializable: %+v", rep.Violation)
	}
	if !cs.HasEngineStats || cs.Engine.EpochHits == 0 {
		t.Fatalf("engine stats missing: %+v", cs)
	}
	if cs.ParseTime <= 0 || cs.CheckTime <= 0 {
		t.Fatalf("stage times not accumulated: %+v", cs)
	}

	// Readers of a unary write absorb the writer's clock, so their ends
	// take the full propagation path and defer the R_x flush; each next
	// reader's end settles the previous reader's snapshot.
	var b strings.Builder
	b.WriteString("t0|w(x)|0\n")
	for r := 0; r < 3; r++ {
		for th := 1; th <= 4; th++ {
			fmt.Fprintf(&b, "t%d|begin|0\nt%d|r(x)|0\nt%d|end|0\n", th, th, th)
		}
	}
	if _, cs, err = aerodrome.CheckReaderPipelinedStats(strings.NewReader(b.String()), aerodrome.Optimized); err != nil {
		t.Fatal(err)
	}
	if e := cs.Engine; e.FlushesDeferred != 12 || e.FlushesSettled != 11 {
		t.Fatalf("flushes deferred %d, settled %d; want 12 and 11", e.FlushesDeferred, e.FlushesSettled)
	}
}
