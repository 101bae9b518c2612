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

// forVars calls f for every variable record on an allocated page.
func forVars(b *Optimized, f func(x int32, v *varHot)) {
	for p, pg := range b.vars {
		if pg == nil {
			continue
		}
		for i := range pg {
			f(int32(p<<varPageBits|i), &pg[i])
		}
	}
}

// coldState returns v's cold record as the test reads it: the zero record
// (every owned clock ⊥, no slot, spill or extra reader) when there is none.
func coldState(b *Optimized, v *varHot) *varCold {
	if v.cold == noCold {
		return &varCold{}
	}
	return b.cold[v.cold]
}

// staleModel tracks Staleʳ_x by its definition, independently of the
// engine: a thread joins it by reading x inside a transaction and leaves
// it when any thread writes x or when its outermost transaction ends.
type staleModel struct {
	depth map[trace.ThreadID]int
	sets  map[int32]map[int32]bool
}

func newStaleModel() *staleModel {
	return &staleModel{depth: map[trace.ThreadID]int{}, sets: map[int32]map[int32]bool{}}
}

// step applies event e, which the engine processed without a violation.
func (m *staleModel) step(e trace.Event) {
	switch e.Kind {
	case trace.Begin:
		m.depth[e.Thread]++
	case trace.End:
		m.depth[e.Thread]--
		if m.depth[e.Thread] == 0 {
			for _, s := range m.sets {
				delete(s, int32(e.Thread))
			}
		}
	case trace.Read:
		if m.depth[e.Thread] > 0 {
			if m.sets[e.Target] == nil {
				m.sets[e.Target] = map[int32]bool{}
			}
			m.sets[e.Target][int32(e.Thread)] = true
		}
	case trace.Write:
		delete(m.sets, e.Target)
	}
}

// checkShortcuts asserts, for the engine's current state:
//  1. snapBelow(p, u) equals the full p ⊑ C_u for every pending snapshot p
//     and every thread u;
//  2. R_x ⊑ C_rxAbs for every variable whose absorb epoch is live;
//  3. every update-set mark, inline or spilled, agrees with the update
//     sets themselves: a running transaction is listed for x exactly when
//     x is in its set;
//  4. every cold-storage skip of the hot record matches the cold state: a
//     clear varOwnW / varOwnR leaves the owned clocks ⊥ (so an absent
//     owned clock counts as ⊥ in the represented W_x, R_x and ȒR_x) and
//     the cold halves of the absorb and repeat-write epochs 0, a clear
//     varMoreStale or spill bit leaves that cold list empty, and hrxAt
//     reads the represented ȒR_x exactly;
//  5. the inline and cold stale readers are the set stale (the model)
//     holds, with the inline slot filled whenever the set is not empty.
func checkShortcuts(t *testing.T, ctx string, b *Optimized, stale *staleModel) {
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
	forVars(b, func(x int32, v *varHot) {
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
		c := coldState(b, v)
		if v.cold == noCold && v.flags&^varStaleW != 0 {
			t.Fatalf("%s: x%d has cold flags %#x but no cold record", ctx, x, v.flags)
		}
		ownW, ownR := v.flags&varOwnW != 0, v.flags&varOwnR != 0
		if ownW == c.w.Flat().IsZero() || ownW != (c.w.Ver() != 0) {
			t.Fatalf("%s: x%d varOwnW %v, owned W_x %v at version %d", ctx, x, ownW, c.w.Flat(), c.w.Ver())
		}
		if ownR == c.rx.Flat().IsZero() || ownR != (c.rx.Ver() != 0) || (!ownR && c.hrx.Len() != 0) {
			t.Fatalf("%s: x%d varOwnR %v, owned R_x %v at version %d, ȒR_x %v", ctx, x, ownR, c.rx.Flat(), c.rx.Ver(), c.hrx.Flat())
		}
		if !ownR && c.rxAbsVer != 0 {
			t.Fatalf("%s: x%d R_x is ⊥ but the absorb epoch's cold version is %d", ctx, x, c.rxAbsVer)
		}
		if !ownR && !ownW && (c.wsRxVer != 0 || c.wsWVer != 0 || c.wsHrx != 0) {
			t.Fatalf("%s: x%d owns no clock but the repeat-write epoch's cold half is %d/%d/%d", ctx, x, c.wsRxVer, c.wsWVer, c.wsHrx)
		}
		if v.rxAbs != nilThread && b.rxAbsorbed(v, v.rxAbs) && !c.rx.Flat().Leq(clocks[v.rxAbs]) {
			t.Fatalf("%s: x%d absorb epoch of t%d is live but R_x ⋢ C_t", ctx, x, v.rxAbs)
		}
		// The represented ȒR_x: the owned part (⊥ when absent) joined with
		// the pending snapshot zeroed at its owner.
		hr := c.hrx.Flat()
		if p := v.pendR; p != noSnap {
			hr = hr.Join(snaps[p].WithZero(int(b.snapOwner[p])))
		}
		for u := range b.threads {
			if got := b.hrxAt(v, u); got != hr.At(u) {
				t.Fatalf("%s: x%d hrxAt(t%d) = %d, represented ȒR_x has %d", ctx, x, u, got, hr.At(u))
			}
		}
		for k := range 2 {
			if v.flags&(varSpillR<<k) == 0 && c.spill[k] != nil {
				t.Fatalf("%s: x%d spill bit %d clear over a spilled vector %v", ctx, x, k, c.spill[k])
			}
		}
		for u := range b.threads {
			ts := &b.threads[u]
			running := ts.activeIdx >= 0
			for k, kind := range []string{"R", "W"} {
				if got, want := running && b.listed(v, k, int32(u), ts.begin), slices.Contains(ts.upd[k], x); got != want {
					t.Fatalf("%s: x%d mark%s says t%d listed %v, UpdateSet%s has it %v",
						ctx, x, kind, u, got, kind, want)
				}
			}
		}
		var readers []int32
		if v.stale0 != nilThread {
			readers = append(readers, v.stale0)
		} else if len(c.staleR) != 0 {
			t.Fatalf("%s: x%d has cold stale readers %v but no inline one", ctx, x, c.staleR)
		}
		if (v.flags&varMoreStale != 0) != (len(c.staleR) != 0) {
			t.Fatalf("%s: x%d varMoreStale %v over cold stale readers %v", ctx, x, v.flags&varMoreStale != 0, c.staleR)
		}
		readers = append(readers, c.staleR...)
		var want []int32
		for u := range stale.sets[x] {
			want = append(want, u)
		}
		slices.Sort(readers)
		slices.Sort(want)
		if !slices.Equal(readers, want) {
			t.Fatalf("%s: x%d stale readers %v, want %v", ctx, x, readers, want)
		}
	})
}

// replayShortcuts feeds tr to eng, checking the shortcuts after every event
// until the first violation (the handler that reports one stops midway).
func replayShortcuts(t *testing.T, ctx string, eng *Optimized, tr *trace.Trace) {
	t.Helper()
	stale := newStaleModel()
	for i, e := range tr.Events {
		if eng.Process(e) != nil {
			return
		}
		stale.step(e)
		checkShortcuts(t, fmt.Sprintf("%s event %d", ctx, i), eng, stale)
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
