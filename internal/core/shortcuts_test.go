package core

// White-box replay of the O(1) shortcuts of Optimized: after every event
// each shortcut must give the answer of the full computation it stands
// for.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aerodrome/internal/rapidio"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
)

// checkShortcuts asserts, for the engine's current state:
//  1. snapBelow(p, u) equals the full p ⊑ C_u for every pending snapshot p
//     and every thread u;
//  2. rx ⊑ C_rxAbs for every variable whose absorb epoch is live;
//  3. every update-set mark agrees with the update sets themselves: a
//     running transaction is listed for x exactly when x is in its set.
func checkShortcuts(t *testing.T, ctx string, b *Optimized) {
	t.Helper()
	clocks := make([]vc.Clock, len(b.threads))
	for u := range b.threads {
		if b.threads[u].init {
			clocks[u] = b.threads[u].c.Flat()
		}
	}
	snaps := make([]vc.Clock, len(b.snaps))
	for s := range b.snaps {
		if b.snapRefs[s] > 0 {
			snaps[s] = b.snaps[s].Flat()
		}
	}
	for x := range b.vars {
		v := &b.vars[x]
		for _, p := range []int32{v.pendW, v.pendR} {
			if p == noSnap {
				continue
			}
			for u, cu := range clocks {
				if cu == nil {
					continue
				}
				if got, want := b.snapBelow(p, u), snaps[p].Leq(cu); got != want {
					t.Fatalf("%s: x%d snapshot %d (owner %d) below C_%d: snapBelow %v, full %v",
						ctx, x, p, b.snapOwner[p], u, got, want)
				}
			}
		}
		if v.rxAbs != nilThread && v.rxAbsVer == v.rx.Ver() && !v.rx.Flat().Leq(clocks[v.rxAbs]) {
			t.Fatalf("%s: x%d absorb epoch of t%d is live but R_x ⋢ C_t", ctx, x, v.rxAbs)
		}
		for u := range b.threads {
			ts := &b.threads[u]
			running := ts.activeIdx >= 0
			for _, k := range []struct {
				kind string
				mark *updMark
				set  []int32
			}{{"R", &v.markR, ts.updR}, {"W", &v.markW, ts.updW}} {
				if got, want := running && k.mark.has(int32(u), ts.begin), slices.Contains(k.set, int32(x)); got != want {
					t.Fatalf("%s: x%d mark%s says t%d listed %v, UpdateSet%s has it %v",
						ctx, x, k.kind, u, got, k.kind, want)
				}
			}
		}
	}
}

// replayShortcuts feeds tr to eng, checking the shortcuts after every event
// until the first violation (the handler that reports one stops midway).
func replayShortcuts(t *testing.T, ctx string, eng *Optimized, tr *trace.Trace) {
	t.Helper()
	for i, e := range tr.Events {
		if eng.Process(e) != nil {
			return
		}
		checkShortcuts(t, fmt.Sprintf("%s event %d", ctx, i), eng)
	}
}

// shortcutCorpus is the replay input: the fuzz corpus seeds, the golden
// traces and 300 random traces.
func shortcutCorpus(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for i, seed := range fuzzSeeds(t) {
		out[fmt.Sprintf("fuzz-seed-%d", i)] = testutil.TraceFromBytes(seed)
	}
	paths, err := filepath.Glob("../../testdata/golden/*.std")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden traces (%v)", err)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rapidio.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = tr
	}
	r := rand.New(rand.NewSource(170017))
	for i := 0; i < 300; i++ {
		out[fmt.Sprintf("random-%d", i)] = testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 2 + r.Intn(6), Vars: 1 + r.Intn(6), Locks: 1 + r.Intn(2),
			Steps: 20 + r.Intn(150), TxnBias: r.Intn(10),
		})
	}
	return out
}

func TestShortcutsMatchFullComputation(t *testing.T) {
	corpus := shortcutCorpus(t)
	var skipped int64
	for name, tr := range corpus {
		eng := NewOptimized()
		replayShortcuts(t, name, eng, tr)
		skipped += eng.joinsSkipped
	}
	if skipped == 0 {
		t.Fatal("the corpus never took a shortcut")
	}
}
