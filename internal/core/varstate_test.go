package core

// The per-variable record of Optimized: its size, the live heap it costs
// per variable, and the cold-storage paths that few traces take — a second
// stale reader, a spilled update-set mark, and variables on several pages.

import (
	"runtime"
	"testing"
	"unsafe"

	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

func TestVarHotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(varHot{}); n > 64 {
		t.Fatalf("varHot is %d bytes, more than one 64-byte cache line", n)
	}
	if n := unsafe.Sizeof(varPage{}); n > 64*328 {
		t.Fatalf("a variable page is %d bytes, more than a 64-record table of 328-byte records", n)
	}
}

// touchCounter passes events through and marks each variable accessed.
type touchCounter struct {
	src     trace.Source
	touched []bool
	n       int
}

func (c *touchCounter) Next() (trace.Event, bool) {
	e, ok := c.src.Next()
	if ok && (e.Kind == trace.Read || e.Kind == trace.Write) && !c.touched[e.Target] {
		c.touched[e.Target] = true
		c.n++
	}
	return e, ok
}

// liveBytesPerVar runs a fresh Algorithm 3 engine over cfg's generated
// trace and returns the live heap the engine holds afterwards, after a
// collection, divided by the number of variables the trace touched.
func liveBytesPerVar(t *testing.T, cfg workload.Config) float64 {
	t.Helper()
	src := &touchCounter{src: workload.New(cfg), touched: make([]bool, cfg.Vars)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := NewOptimized()
	if v, _ := Run(eng, src); v != nil {
		t.Fatalf("unexpected violation %v", v)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(src.n)
}

// TestBytesPerVariable pins the live heap per variable on chain traces,
// the shape where few variables ever own a clock: about half of what a
// record with eagerly allocated W_x, R_x and ȒR_x held (511 B at 4
// threads × 200K variables, 608 B at 8 threads × 8,192).
func TestBytesPerVariable(t *testing.T) {
	for _, c := range []struct {
		name    string
		threads int
		vars    int
		events  int64
		bound   float64
	}{
		{"t4-v200000", 4, 200_000, 1_000_000, 256},
		{"t8-v8192", 8, 8192, 2_000_000, 304},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := liveBytesPerVar(t, workload.Config{
				Threads: c.threads, Vars: c.vars, Locks: 32, Events: c.events,
				Pattern: workload.PatternChain, Inject: workload.ViolationNone, Seed: 1,
			})
			t.Logf("%.0f live bytes per touched variable", got)
			if got > c.bound {
				t.Fatalf("%.0f live bytes per variable, bound %.0f", got, c.bound)
			}
		})
	}
}

// TestSecondStaleReader: three overlapping reader transactions make x's
// stale-reader set outgrow the inline slot. The inline reader's end moves
// a cold one inline, and the write that flushes the rest fires the ȒR
// check from a cold reader's clock, as Basic does.
func TestSecondStaleReader(t *testing.T) {
	b := trace.NewBuilder()
	t0, t1, t2, t3 := b.Thread("0"), b.Thread("1"), b.Thread("2"), b.Thread("3")
	x, a := b.Var("x"), b.Var("a")
	b.Begin(t0).Write(t0, a)               // T
	b.Begin(t1).Read(t1, x)                // inline reader
	b.Begin(t2).Read(t2, a).Read(t2, x)    // cold reader, ordered after T
	b.Begin(t3).Read(t3, x).Read(t3, x)    // a second cold reader, read twice
	b.End(t1)                              // a cold reader moves inline
	b.Write(t0, x).End(t0).End(t2).End(t3) // flushes t2 and t3: t2 → T closes
	tr := b.Build()

	eng := runPrefix(t, tr, 10)
	v := eng.varAt(int32(x))
	if c := coldState(eng, v); v.stale0 != int32(t1) || len(c.staleR) != 2 || v.flags&varMoreStale == 0 {
		t.Fatalf("want t1 inline and two cold stale readers, got %d and %v", v.stale0, c.staleR)
	}
	eng.Process(tr.Events[10])
	if c := coldState(eng, v); v.stale0 == int32(t1) || v.stale0 == nilThread || len(c.staleR) != 1 {
		t.Fatalf("t1's end should move a cold reader inline, got %d and %v", v.stale0, c.staleR)
	}
	vb, _ := Run(NewBasic(), tr.Cursor())
	vo, _ := Run(NewOptimized(), tr.Cursor())
	if vb == nil || vo == nil || vo.Index != 11 || vo.Check != CheckWriteRead || vo.Index > vb.Index {
		t.Fatalf("optimized %+v, basic %+v: want a write-after-read violation at 11", vo, vb)
	}
	replayShortcuts(t, "second stale reader", NewOptimized(), tr)
}

// TestMarkSpill: while two running transactions list x in UpdateSetʳ, the
// second spills to the cold vector; both stay listed, and the trace's
// verdict matches Basic's.
func TestMarkSpill(t *testing.T) {
	b := trace.NewBuilder()
	t0, t1 := b.Thread("0"), b.Thread("1")
	x := b.Var("x")
	b.Begin(t0).Read(t0, x)
	b.Begin(t1).Read(t1, x)
	b.End(t0).End(t1)
	tr := b.Build()

	eng := runPrefix(t, tr, 4)
	v := eng.varAt(int32(x))
	if v.flags&varSpillR == 0 || coldState(eng, v).spill[kindR] == nil {
		t.Fatalf("the second reader's mark did not spill (flags %#x)", v.flags)
	}
	for _, u := range []trace.ThreadID{t0, t1} {
		if !eng.listed(v, kindR, int32(u), eng.threads[u].begin) {
			t.Fatalf("t%d's running transaction is not listed for x", u)
		}
	}
	runAllEngines(t, tr, false, "mark spill")
	replayShortcuts(t, "mark spill", NewOptimized(), tr)
}

// TestVarPagesGrowAcrossPages: variables on distant pages each add their
// own page and leave the pages between them unallocated; records never
// move as the table grows, and the verdicts match Basic's.
func TestVarPagesGrowAcrossPages(t *testing.T) {
	ids := []int32{0, varPageLen - 1, varPageLen, 5*varPageLen + 3}
	b := trace.NewBuilder()
	t0, t1 := b.Thread("0"), b.Thread("1")
	b.Write(t0, 2).Read(t1, 2) // t1 absorbs t0: its ends take the full path
	for _, x := range ids {
		b.Begin(t1).Read(t1, trace.VarID(x)).Write(t1, trace.VarID(x)).End(t1)
	}
	tr := b.Build()

	eng := NewOptimized()
	first := eng.ensureVar(0)
	if v, _ := Run(eng, tr.Cursor()); v != nil {
		t.Fatalf("unexpected violation %v", v)
	}
	if eng.varAt(0) != first {
		t.Fatal("growing the table moved a record")
	}
	if len(eng.vars) != 6 {
		t.Fatalf("page directory holds %d pages, want 6", len(eng.vars))
	}
	for p, pg := range eng.vars {
		if want := p <= 1 || p == 5; (pg != nil) != want {
			t.Fatalf("page %d allocated %v, want %v", p, pg != nil, want)
		}
	}
	for _, x := range ids {
		if v := eng.varAt(x); v.lastW != int32(t1) || v.pendW == noSnap {
			t.Fatalf("x%d: lastW %d, pendW %d: want t1's deferred write", x, v.lastW, v.pendW)
		}
	}
	runAllEngines(t, tr, false, "vars across pages")
	replayShortcuts(t, "vars across pages", NewOptimized(), tr)
}
