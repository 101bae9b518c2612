package core

import (
	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
)

// epochSlot caches one successful checkAndGet: thread `thread` absorbed
// clock `src` at version srcVer inside the transaction begun at stamp
// begin, and no violation fired. While all three still match, re-running
// the check is provably a no-op (the begin stamp is unchanged, so the
// violation predicate evaluates identically, and the thread clock only
// grows, so the join is absorbed already) — the O(width) join is skipped.
type epochSlot struct {
	thread int32
	src    *flatClock
	srcVer uint64
	begin  vc.Time
}

// noSnap marks an empty pending-flush slot (varHot.pendW / pendR).
const noSnap = int32(-1)

// flushSlot is the epoch of a completed unary-read flush by `thread` at
// clock version ctVer.
type flushSlot struct {
	thread int32
	ctVer  uint64
}

// Update-set kinds: they index varHot's inline marks, varCold.spill and
// optThread.upd.
const (
	kindR = 0 // UpdateSetʳ
	kindW = 1 // UpdateSetʷ
)

// Bits of varHot.flags. Each cold-storage bit tells the hot path whether
// it must read the variable's varCold record at all; while a bit is clear
// the state it guards is empty or ⊥, so the common path never leaves the
// hot record.
const (
	// varStaleW is the paper's Staleʷ_x = ⊤: the last write's timestamp has
	// not been flushed because the writing transaction is still running;
	// readers consult the writer's live clock instead.
	varStaleW uint32 = 1 << iota
	// varOwnW: the owned W_x (varCold.w) is not ⊥.
	varOwnW
	// varOwnR: the owned R_x and ȒR_x (varCold.rx, varCold.hrx) are not ⊥.
	varOwnR
	// varMoreStale: varCold.staleR lists stale readers besides stale0.
	varMoreStale
	// varSpillR and varSpillW (= varSpillR << kindW): varCold.spill[k] may
	// list a running transaction.
	varSpillR
	varSpillW
)

// varHot is the part of a variable's state that every access reads: one
// pointer-free 64-byte record, so an access in a transaction touches one
// cache line per variable and the garbage collector never scans the
// table. Owned clocks, slots, spilled marks and extra stale readers live
// in a varCold record that the flags tell the common path to skip.
//
// Update-set membership is one inline (thread markT[k], begin stamp
// markStamp[k]) pair per kind, spilled to a thread-indexed vector of begin
// stamps (varCold.spill[k]) only while a second running transaction lists
// the variable. Begin stamps strictly increase per thread and are at least
// 2, so neither the zero value nor a pair left by a finished transaction
// matches a running one.
type varHot struct {
	markStamp [2]vc.Time
	// wsCtVer / wsThread are the repeat-write epoch: thread wsThread
	// completed a write at its clock version wsCtVer. The version fixes the
	// begin stamp and whether the write ran inside a transaction (each
	// outermost begin and end ticks the clock); varCold's ws fields add the
	// owned clocks' versions once one exists. wsThread is nilThread when
	// invalidated.
	wsCtVer uint64
	lastW   int32
	// pendW / pendR are deferred end-event flushes (noSnap when none): pool
	// indices of snapshots that the represented W_x, R_x and ȒR_x still
	// have to absorb (see Optimized).
	pendW, pendR int32
	// rxAbs is the absorb epoch of R_x: thread rxAbs joined R_x into its
	// clock at the R_x version varCold.rxAbsVer (0 while R_x is ⊥), so
	// while both match, the write path's C_t ⊔= R_x is a no-op for it.
	rxAbs int32
	markT [2]int32
	// stale0 is the first member of the paper's Staleʳ_x (nilThread when
	// empty): a thread whose read of x, inside a still running transaction,
	// has not been flushed into R_x and ȒR_x. Further members are in
	// varCold.staleR, and only while stale0 is set.
	stale0   int32
	wsThread int32
	cold     int32 // index into Optimized.cold, or noCold
	flags    uint32
}

// noCold marks a variable without a varCold record.
const noCold = int32(-1)

// varCold is the rarely read part of a variable's state, allocated the
// first time one of its fields is needed.
type varCold struct {
	// w, rx and hrx are the owned W_x, R_x and ȒR_x: ⊥, and never read,
	// until something is joined or copied into them (varOwnW, varOwnR).
	w, rx flatClock
	hrx   vc.Sparse
	// slot is the epoch of W_x lookups, against the writer's live clock or
	// against w.
	slot epochSlot
	// readSlot skips the unary-read flush (the O(width) rx/ȒR joins) when
	// the same thread re-reads x with an unchanged clock: both joins are
	// then no-ops. (The update-set cover still runs; it is O(active
	// transactions).)
	readSlot flushSlot
	// wsRxVer, wsWVer and wsHrx complete varHot's repeat-write epoch: the
	// versions of rx and w, and ȒR_x(wsThread), at the write. They are
	// written only while an owned clock exists; before that all three are
	// 0, as the clocks they stand for are.
	wsRxVer, wsWVer uint64
	wsHrx           vc.Time
	rxAbsVer        uint64
	staleR          []int32
	spill           [2]vc.Clock
}

// Variables live in pages of varPageLen records, allocated on first touch:
// the table grows without copying records, and a lone high variable ID
// costs one page plus its slot in the page directory.
const (
	varPageBits = 8
	varPageLen  = 1 << varPageBits
)

type varPage [varPageLen]varHot

type optThread struct {
	c *flatClock
	// begin is the begin stamp C⊲_t(t) of the thread's last outermost
	// transaction. Under the local-time invariant it stands for the whole
	// begin clock: C⊲_t ⊑ K ⟺ C⊲_t(t) ≤ K(t) for every clock K the engine
	// keeps, so no O(width) begin clock is stored.
	begin vc.Time
	depth int
	init  bool
	ran   bool
	// foreign is the sticky foreign-component test C_t[0/t] ≠ ⊥ that
	// drives transaction garbage collection, maintained incrementally at
	// every join instead of rescanning the clock at each end event.
	foreign bool
	// activeIdx is this thread's position in the engine's active list
	// (-1 while no outermost transaction is open).
	activeIdx int32
	// upd[kindR] / upd[kindW] are the paper's UpdateSetʳ_t / UpdateSetʷ_t,
	// as slices of variable IDs deduplicated through the variables' marks
	// (one entry per variable per transaction).
	upd [2][]int32
	// relLocks lists the locks whose lastRel is this thread, so the GC
	// path resets them without sweeping the lock table.
	relLocks []int32
	// dirtyLocks lists the locks whose clock may carry this thread's
	// current begin stamp, so the full propagation path visits only
	// locks that can satisfy L_ℓ(t) ≥ C⊲_t(t).
	dirtyLocks []int32
	// dirtyThreads is the same for thread clocks: the threads whose clock
	// may carry this thread's current begin stamp. The full propagation
	// path's thread checks visit only these instead of sweeping b.threads.
	dirtyThreads []int32
	// markedT.At(u) is the begin stamp of the transaction that last put
	// thread u on dirtyThreads (cf. optLock.marked).
	markedT vc.Clock
	// joinSlot is the epoch for join(u) checks against this thread.
	joinSlot epochSlot
}

type optLock struct {
	l       *flatClock
	lastRel int32
	// relIdx is this lock's position in the lastRel thread's relLocks.
	relIdx int32
	// marked.At(u) is the begin stamp of the transaction that last put
	// this lock on u's dirtyLocks (stamps strictly increase, so equality
	// means "already listed this transaction").
	marked vc.Clock
	slot   epochSlot
}

// Optimized is Algorithm 3 (Appendix C.2) — AeroDrome with lazy clock
// updates, per-thread update sets, and garbage collection of transactions
// with no incoming edges — on flat vector clocks, the representation the
// paper's Theorem 4 bound is stated for. On top of the paper's algorithm it
// keeps the per-event cost sublinear in thread count:
//
//   - an active-transaction registry replaces the all-threads scans of the
//     UpdateSet loops (cover touches only open transactions);
//   - per-thread released-lock and dirty-lock lists replace the end-event
//     sweeps over the whole lock table;
//   - the foreign-component test behind transaction GC is maintained
//     incrementally (O(1) per end event);
//   - epoch fast paths skip the join of checkAndGet entirely when the same
//     (source clock, version) was already absorbed inside the current
//     transaction — the FastTrack-style same-epoch case.
//
// Laziness makes detection points earlier-or-equal than Basic's, never
// later: while an accessing transaction is still running, readers and
// writers consult its live clock, which dominates the access event's clock,
// and every component of a live clock still witnesses a real ⋖Txn path, so
// any check that fires corresponds to a genuine cycle (the differential
// tests assert verdict equality with Basic and Index(Optimized) ≤
// Index(Basic)).
//
// Deviations from the printed pseudocode, each justified in the package
// comment and enforced by tests:
//
//   - hasIncomingEdge uses the sticky foreign-component test C_t[0/t] ≠ ⊥
//     (printed: begin-vs-end clock comparison, which misses program-order
//     incoming edges from retained predecessors; TestGCChainCounterexample).
//   - accesses outside any transaction (unary transactions) take the eager
//     Algorithm 2 path: a unary transaction completes immediately, so its
//     thread's live clock must not be consulted later.
//   - update-set membership is also refreshed when rx/W grow at end-event
//     flushes, so end-time conditions match Algorithm 1's, which evaluates
//     them against the current clock values rather than access-time values.
//
// Laziness also extends past the end event. A full-propagation end copies
// C_t once into a pooled, immutable snapshot, and every variable in its
// update sets records a pending (owner t, snapshot) pair instead of paying
// the O(width) W_x ⊔= C_t, R_x ⊔= C_t and ȒR_x ⊔= C_t[0/t] joins. The
// represented clocks are W_x = w ⊔ snapW, R_x = rx ⊔ snapR and
// ȒR_x = hrx ⊔ snapR[0/owner]. A later end by the same owner supersedes a
// pending snapshot without a join, since thread clocks only grow; a flush
// from a different owner settles (joins in) the old one first; a unary
// write's overwrite of W_x drops it. Joins into w, rx or hrx commute with
// a pending snapshot, and the ȒR check reads the one component it needs
// through it. Snapshots are reference counted by the pending slots that
// name them and recycled through a free list, so the pool never holds more
// than one snapshot beyond the peak number of pending slots.
//
// Per-variable state is sized to what it holds. The owned w, rx and hrx
// are absent (⊥) until something is joined or copied into them, and so
// are the epoch slots, mark spills and extra stale readers: all of them
// live in a varCold record allocated on first need. What every access
// reads — lastW, Staleʷ, the pending snapshots, the absorb and
// repeat-write epochs, the inline update-set marks and the first stale
// reader — is a 64-byte pointer-free varHot record whose flags say which
// cold fields are in use. The variable table is paged, so it grows without
// copying. An absent W_x is not consulted at all: a check against ⊥ can
// neither fire nor change C_t.
//
// Before an O(width) join or settle the engine asks in O(1) whether the
// target already holds the source, and skips the work when it does:
//
//   - End tick and stamped snapshots. An outermost end runs C_t.Inc(t)
//     before propagating, and each snapshot records its owner's component
//     as its stamp. snapBelow(s, u), C_u(owner) ≥ stamp, then holds exactly
//     when s ⊑ C_u: only the owner raises its own component (at its begins
//     and ends), so a clock whose owner component reaches the stamp
//     absorbed the owner's clock at or after the end that took s, and
//     thread clocks only grow. The tick keeps every begin-stamp comparison's
//     outcome: between a begin and its end C_t(t) is the begin stamp, the
//     ticked value is one above it, and the next begin stamp is higher still.
//   - Reads and writes consult W_x without settling it (checkAndGetW): the
//     pending snapshot is joined straight into C_t unless snapBelow says it
//     is there already, and w goes through the epoch slot. A write settles
//     R_x only when its pending snapshot is not below C_t, and skips
//     C_t ⊔= rx while the variable's absorb epoch (rxAbs, rxAbsVer) shows
//     this thread already joined this version of rx.
//   - Violation tests compare begin stamps: under the local-time invariant,
//     C⊲_t ⊑ K ⟺ C⊲_t(t) ≤ K(t) for every clock K the engine keeps, so no
//     begin clock is stored or compared.
//
// Each shortcut answers a question exactly as the full computation would,
// so verdicts, violation indices and GC decisions are the eager engine's;
// EngineStats.JoinsSkipped counts the joins and settles skipped.
type Optimized struct {
	threads []optThread
	locks   []optLock
	// vars is the paged variable table: variable x is record
	// x%varPageLen of page x/varPageLen (nil until a variable in it is
	// touched).
	vars []*varPage
	// cold holds the varCold records, indexed by varHot.cold. Records are
	// allocated one by one, so pointers to them (and the epoch slots'
	// pointers to their w) stay valid as the slice grows.
	cold []*varCold
	// active lists the threads with an open outermost transaction, in no
	// particular order (swap-removed at end events).
	active []int32
	n      int64
	viol   *Violation
	// endsProcessed / endsCollected count end events that took the full
	// propagation path vs. the garbage-collection fast path (ablation
	// observability).
	endsProcessed int64
	endsCollected int64
	// epochHits / epochMisses count checkAndGet calls resolved by the
	// epoch fast path vs. falling through to the full check and join.
	epochHits   int64
	epochMisses int64
	// sparsePromotions counts ȒR_x accumulators promoting to dense; every
	// hrx allocated by coldOf points its counter here.
	sparsePromotions int64
	// The deferred-flush snapshot pool: snaps[s] is a copy of thread
	// snapOwner[s]'s clock taken at one of its full-propagation ends,
	// snapStamp[s] is that copy's owner component (see snapBelow), and
	// snapRefs[s] pending slots name it; snapFree lists the entries with
	// no references, ready for reuse.
	snaps     []*flatClock
	snapOwner []int32
	snapStamp []vc.Time
	snapRefs  []int32
	snapFree  []int32
	// flushesDeferred / flushesSettled count end-event flushes recorded as
	// pending snapshots vs. pending snapshots later joined in.
	flushesDeferred int64
	flushesSettled  int64
	// joinsSkipped counts joins and settles skipped because snapBelow or
	// an absorb epoch proved them no-ops.
	joinsSkipped int64
}

// NewOptimized returns a fresh Algorithm 3 engine.
func NewOptimized() *Optimized { return &Optimized{} }

// Name implements Engine.
func (b *Optimized) Name() string { return AlgoOptimized.String() }

// Processed implements Engine.
func (b *Optimized) Processed() int64 { return b.n }

// Violation implements Engine.
func (b *Optimized) Violation() *Violation { return b.viol }

// Stats implements StatsReporter.
func (b *Optimized) Stats() EngineStats {
	return EngineStats{
		EpochHits:        b.epochHits,
		EpochMisses:      b.epochMisses,
		EndsFull:         b.endsProcessed,
		EndsCollected:    b.endsCollected,
		SparsePromotions: b.sparsePromotions,
		FlushesDeferred:  b.flushesDeferred,
		FlushesSettled:   b.flushesSettled,
		JoinsSkipped:     b.joinsSkipped,
	}
}

func (b *Optimized) ensureThread(t int) *optThread {
	for len(b.threads) <= t {
		b.threads = append(b.threads, optThread{activeIdx: -1})
	}
	ts := &b.threads[t]
	if !ts.init {
		ts.c = newFlatClock()
		ts.c.InitUnit(t)
		ts.init = true
	}
	return ts
}

func (b *Optimized) ensureLock(l int) *optLock {
	for len(b.locks) <= l {
		b.locks = append(b.locks, optLock{lastRel: nilThread, relIdx: -1})
	}
	lk := &b.locks[l]
	if lk.l == nil {
		// Lazy clock allocation: only locks that are actually used pay for
		// their clock (the pool can be much larger than the touched set).
		lk.l = newFlatClock()
	}
	return lk
}

// ensureVar returns variable x's record, adding its page on first touch.
func (b *Optimized) ensureVar(x int) *varHot {
	p := x >> varPageBits
	if p >= len(b.vars) || b.vars[p] == nil {
		b.addVarPage(p)
	}
	return &b.vars[p][x&(varPageLen-1)]
}

// varAt returns the record of variable x, which has been touched.
func (b *Optimized) varAt(x int32) *varHot {
	return &b.vars[x>>varPageBits][x&(varPageLen-1)]
}

func (b *Optimized) addVarPage(p int) {
	if p >= len(b.vars) {
		b.vars = append(b.vars, make([]*varPage, p+1-len(b.vars))...)
	}
	pg := new(varPage)
	for i := range pg {
		pg[i] = varHot{lastW: nilThread, pendW: noSnap, pendR: noSnap, rxAbs: nilThread,
			stale0: nilThread, wsThread: nilThread, cold: noCold}
	}
	b.vars[p] = pg
}

// coldOf returns v's cold record, allocating it on first need.
func (b *Optimized) coldOf(v *varHot) *varCold {
	if v.cold == noCold {
		c := &varCold{}
		c.hrx.CountPromotionsInto(&b.sparsePromotions)
		v.cold = int32(len(b.cold))
		b.cold = append(b.cold, c)
	}
	return b.cold[v.cold]
}

// violates implements the violation half of checkAndGet: with t inside a
// transaction, C⊲_t ⊑ clk is a violation. Under the local-time invariant
// the test is C⊲_t(t) ≤ clk(t).
func (b *Optimized) violates(clk *flatClock, t int, e trace.Event, check CheckKind) bool {
	if ts := &b.threads[t]; ts.depth > 0 && ts.begin <= clk.At(t) {
		b.viol = &Violation{
			Index: b.n, Event: e, ActiveThread: e.Thread,
			Check: check, Algorithm: b.Name(),
		}
		return true
	}
	return false
}

// checkAndGet implements the paper's procedure of the same name: declare a
// violation if C⊲_t ⊑ clk and t has an active transaction, else C_t ⊔= clk.
// slot is the epoch cache for this (source, thread) pair.
func (b *Optimized) checkAndGet(clk *flatClock, t int, e trace.Event, check CheckKind, slot *epochSlot) bool {
	begin := b.threads[t].begin
	srcVer := clk.Ver()
	if slot.thread == int32(t) && slot.src == clk &&
		slot.srcVer == srcVer && slot.begin == begin {
		b.epochHits++
		return false // epoch fast path: already checked and absorbed
	}
	b.epochMisses++
	if b.violates(clk, t, e, check) {
		return true
	}
	b.absorb(t, clk)
	*slot = epochSlot{thread: int32(t), src: clk, srcVer: srcVer, begin: begin}
	return false
}

// checkAndGetW is checkAndGet against the represented W_x: the writer's
// live clock while its transaction is still running (Staleʷ = ⊤),
// otherwise w ⊔ the pending snapshot. The snapshot is consulted without
// settling it: it is joined straight into C_t unless snapBelow shows C_t
// holds it already, and w goes through the epoch slot unless it is ⊥.
func (b *Optimized) checkAndGetW(v *varHot, t int, e trace.Event, check CheckKind) bool {
	if v.flags&varStaleW != 0 && v.lastW >= 0 {
		return b.checkAndGet(b.threads[v.lastW].c, t, e, check, &b.coldOf(v).slot)
	}
	if p := v.pendW; p != noSnap {
		if b.violates(b.snaps[p], t, e, check) {
			return true
		}
		if b.snapBelow(p, t) {
			b.joinsSkipped++
		} else {
			b.absorb(t, b.snaps[p])
		}
	}
	if v.flags&varOwnW == 0 {
		return false // w is ⊥: W_x is the snapshot, if any
	}
	c := b.cold[v.cold]
	return b.checkAndGet(&c.w, t, e, check, &c.slot)
}

// absorb joins clk into C_t and keeps the foreign flag and the dirty-thread
// lists in step with it.
func (b *Optimized) absorb(t int, clk *flatClock) {
	ts := &b.threads[t]
	ts.c.Join(clk)
	if !ts.foreign && clk.HasEntryOtherThan(t) {
		ts.foreign = true
	}
	b.markThreadDirty(t, clk)
}

// snapBelow reports whether snapshot s ⊑ C_u, in O(1): C_u's owner
// component has reached the stamp of the end tick that took s (see
// Optimized).
func (b *Optimized) snapBelow(s int32, u int) bool {
	return b.threads[u].c.At(int(b.snapOwner[s])) >= b.snapStamp[s]
}

// takeSnapshot copies thread t's clock into a pooled snapshot for the
// deferred flushes of one end event and returns its pool index. The
// caller gives it its first reference right away.
func (b *Optimized) takeSnapshot(t int) int32 {
	var s int32
	if n := len(b.snapFree); n > 0 {
		s = b.snapFree[n-1]
		b.snapFree = b.snapFree[:n-1]
	} else {
		s = int32(len(b.snaps))
		b.snaps = append(b.snaps, newFlatClock())
		b.snapOwner = append(b.snapOwner, 0)
		b.snapStamp = append(b.snapStamp, 0)
		b.snapRefs = append(b.snapRefs, 0)
	}
	ct := b.threads[t].c
	b.snaps[s].CopyFrom(ct)
	b.snapOwner[s] = int32(t)
	b.snapStamp[s] = ct.At(t)
	return s
}

// releaseSnapshot drops one pending reference to snapshot s and recycles
// it once none remain.
func (b *Optimized) releaseSnapshot(s int32) {
	b.snapRefs[s]--
	if b.snapRefs[s] == 0 {
		b.snapFree = append(b.snapFree, s)
	}
}

// deferW records snapshot s as v's pending W_x flush. A pending snapshot
// of another owner is settled first; one of the same owner is superseded
// (s dominates it, thread clocks only grow).
func (b *Optimized) deferW(v *varHot, s int32) {
	if p := v.pendW; p != noSnap {
		if b.snapOwner[p] != b.snapOwner[s] {
			b.settleW(v)
		} else {
			b.releaseSnapshot(p)
		}
	}
	v.pendW = s
	b.snapRefs[s]++
	b.flushesDeferred++
	// The repeat-write epoch keys on w/rx versions, which a deferral
	// leaves untouched while changing the represented clocks.
	v.wsThread = nilThread
}

// deferR is deferW for the pending R_x / ȒR_x flush.
func (b *Optimized) deferR(v *varHot, s int32) {
	if p := v.pendR; p != noSnap {
		if b.snapOwner[p] != b.snapOwner[s] {
			b.settleR(v)
		} else {
			b.releaseSnapshot(p)
		}
	}
	v.pendR = s
	b.snapRefs[s]++
	b.flushesDeferred++
	v.wsThread = nilThread
}

// settleW joins v's pending snapshot into w.
func (b *Optimized) settleW(v *varHot) {
	p := v.pendW
	b.coldOf(v).w.Join(b.snaps[p])
	v.flags |= varOwnW
	v.pendW = noSnap
	b.releaseSnapshot(p)
	b.flushesSettled++
}

// settleR joins v's pending snapshot into rx and, zeroed at its owner,
// into hrx.
func (b *Optimized) settleR(v *varHot) {
	p := v.pendR
	b.joinR(v, b.snaps[p], int(b.snapOwner[p]))
	v.pendR = noSnap
	b.releaseSnapshot(p)
	b.flushesSettled++
}

// joinR is R_x ⊔= clk and ȒR_x ⊔= clk[0/skip] on the owned clocks.
func (b *Optimized) joinR(v *varHot, clk *flatClock, skip int) {
	c := b.coldOf(v)
	c.rx.Join(clk)
	clk.JoinZeroingInto(&c.hrx, skip)
	v.flags |= varOwnR
}

// rxAbsorbed reports whether v's absorb epoch shows that thread t already
// joined the current owned R_x. While R_x is ⊥ its version is 0, and so
// was the version recorded with rxAbs, so no cold read is needed.
func (b *Optimized) rxAbsorbed(v *varHot, t int32) bool {
	return v.rxAbs == t && (v.flags&varOwnR == 0 || b.cold[v.cold].rxAbsVer == b.cold[v.cold].rx.Ver())
}

// hrxAt returns component t of the represented ȒR_x without settling.
func (b *Optimized) hrxAt(v *varHot, t int) vc.Time {
	var h vc.Time
	if v.flags&varOwnR != 0 {
		h = b.cold[v.cold].hrx.At(t)
	}
	if p := v.pendR; p != noSnap && b.snapOwner[p] != int32(t) {
		h = max(h, b.snaps[p].At(t))
	}
	return h
}

// repeatWrite reports whether v's repeat-write epoch is live for thread t:
// t completed the last write of x at its current clock version, and the
// owned W_x, R_x and ȒR_x(t) have not changed since.
func (b *Optimized) repeatWrite(v *varHot, ts *optThread, t int32) bool {
	if v.wsThread != t || v.wsCtVer != ts.c.Ver() {
		return false
	}
	if v.flags&(varOwnR|varOwnW) == 0 {
		return true // no owned clock, then or now: all three are 0
	}
	c := b.cold[v.cold]
	return c.wsRxVer == c.rx.Ver() && c.wsWVer == c.w.Ver() && c.wsHrx == c.hrx.At(int(t))
}

// listed reports whether v's kind-k update-set marks list the transaction
// of thread u begun at stamp own.
func (b *Optimized) listed(v *varHot, k int, u int32, own vc.Time) bool {
	return (v.markT[k] == u && v.markStamp[k] == own) ||
		(v.flags&(varSpillR<<k) != 0 && b.cold[v.cold].spill[k].At(int(u)) == own)
}

// cover records x in the kind-k update set of every thread whose active
// transaction's begin is dominated by clk (the paper's UpdateSetʳ and
// UpdateSetʷ loops). Under the local-time invariant, C⊲_u ⊑ clk ⟺
// C⊲_u(u) ≤ clk(u), and only threads on the active list can qualify.
func (b *Optimized) cover(v *varHot, x int32, clk *flatClock, k int) {
	for _, u := range b.active {
		us := &b.threads[u]
		if us.begin <= clk.At(int(u)) && !b.listed(v, k, u, us.begin) {
			b.mark(v, k, u)
			us.upd[k] = append(us.upd[k], x)
		}
	}
}

// mark lists the running transaction of thread u in v's kind-k marks,
// which do not list it yet (the callers test listed inline; this is the
// rarer, slower half). It takes the inline pair over unless that pair
// names another transaction that is still running; then u spills to the
// thread-indexed vector.
func (b *Optimized) mark(v *varHot, k int, u int32) {
	own := b.threads[u].begin
	// b.threads[markT] exists: thread u does, and the slice grows densely.
	if mt := v.markT[k]; mt == u || b.threads[mt].activeIdx < 0 || b.threads[mt].begin != v.markStamp[k] {
		v.markT[k], v.markStamp[k] = u, own
	} else {
		c := b.coldOf(v)
		c.spill[k] = c.spill[k].Set(int(u), own)
		v.flags |= varSpillR << k
	}
}

// addStaleReader adds t to Staleʳ_x.
func (b *Optimized) addStaleReader(v *varHot, t int32) {
	switch v.stale0 {
	case t:
		return
	case nilThread:
		v.stale0 = t
		return
	}
	c := b.coldOf(v)
	for _, u := range c.staleR {
		if u == t {
			return
		}
	}
	c.staleR = append(c.staleR, t)
	v.flags |= varMoreStale
}

// removeStaleReader drops t from Staleʳ_x, moving a cold member inline
// when t was the inline one.
func (b *Optimized) removeStaleReader(v *varHot, t int32) {
	if v.flags&varMoreStale == 0 {
		if v.stale0 == t {
			v.stale0 = nilThread
		}
		return
	}
	c := b.cold[v.cold]
	last := len(c.staleR) - 1
	if v.stale0 == t {
		v.stale0 = c.staleR[last]
		c.staleR = c.staleR[:last]
	} else {
		for i, u := range c.staleR {
			if u == t {
				c.staleR[i] = c.staleR[last]
				c.staleR = c.staleR[:last]
				break
			}
		}
	}
	if len(c.staleR) == 0 {
		v.flags &^= varMoreStale
	}
}

// flushStaleReaders flushes every stale reader of x with its live clock
// into R_x and ȒR_x, recording any newly covered begins so end-time
// flushes stay exact. It reports whether t was the only one: a flush of
// C_t alone keeps R_x ⊑ C_t.
func (b *Optimized) flushStaleReaders(v *varHot, x int32, t int32) (onlyT bool) {
	onlyT = v.stale0 == t
	b.flushReader(v, x, v.stale0)
	if v.flags&varMoreStale != 0 {
		c := b.cold[v.cold]
		for _, u := range c.staleR {
			b.flushReader(v, x, u)
			onlyT = onlyT && u == t
		}
		c.staleR = c.staleR[:0]
		v.flags &^= varMoreStale
	}
	v.stale0 = nilThread
	return onlyT
}

func (b *Optimized) flushReader(v *varHot, x int32, u int32) {
	uc := b.threads[u].c
	b.joinR(v, uc, int(u))
	b.cover(v, x, uc, kindR)
}

// markThreadDirty lists thread u on the dirty-thread list of every active
// transaction whose begin stamp appears in clk, which was just joined
// into u's clock. Thread clocks change only at the join sites that call
// this (absorb, fork, and end-event propagation) and at u's own ticks,
// so at any thread's end event every thread with C_u(t) ≥ C⊲_t(t) is on
// t's list (stale entries are re-checked there).
func (b *Optimized) markThreadDirty(u int, clk *flatClock) {
	for _, t2 := range b.active {
		if int(t2) == u {
			continue
		}
		ts2 := &b.threads[t2]
		own := ts2.begin
		if clk.At(int(t2)) >= own && ts2.markedT.At(u) != own {
			ts2.markedT = ts2.markedT.Set(u, own)
			ts2.dirtyThreads = append(ts2.dirtyThreads, int32(u))
		}
	}
}

// markLockDirty lists ℓ on the dirty-lock list of every active transaction
// whose begin stamp appears in clk (the clock just stored into L_ℓ). Lock
// clocks change only at releases and end-event propagations, and both call
// this, so at any thread's end event every lock with L_ℓ(t) ≥ C⊲_t(t) is
// on that thread's list (stale entries are re-checked there).
func (b *Optimized) markLockDirty(li int32, clk *flatClock) {
	for _, u := range b.active {
		us := &b.threads[u]
		own := us.begin
		if clk.At(int(u)) >= own {
			l := &b.locks[li]
			if l.marked.At(int(u)) != own {
				l.marked = l.marked.Set(int(u), own)
				us.dirtyLocks = append(us.dirtyLocks, li)
			}
		}
	}
}

// dropRelLock removes lock li from its current lastRel owner's relLocks.
func (b *Optimized) dropRelLock(owner int32, idx int32) {
	os := &b.threads[owner]
	last := len(os.relLocks) - 1
	moved := os.relLocks[last]
	os.relLocks[idx] = moved
	os.relLocks = os.relLocks[:last]
	if int(idx) <= last-1 {
		b.locks[moved].relIdx = idx
	}
}

// removeActive swap-removes t from the active-transaction registry.
func (b *Optimized) removeActive(t int) {
	ts := &b.threads[t]
	last := len(b.active) - 1
	moved := b.active[last]
	b.active[ts.activeIdx] = moved
	b.active = b.active[:last]
	b.threads[moved].activeIdx = ts.activeIdx
	ts.activeIdx = -1
}

// Process implements Engine.
func (b *Optimized) Process(e trace.Event) *Violation {
	if b.viol != nil {
		return b.viol
	}
	t := int(e.Thread)
	ts := b.ensureThread(t)

	switch e.Kind {
	case trace.Begin:
		if ts.depth == 0 {
			ts.c.Inc(t)
			ts.begin = ts.c.At(t)
			ts.activeIdx = int32(len(b.active))
			b.active = append(b.active, int32(t))
		}
		ts.depth++

	case trace.End:
		ts.depth--
		if ts.depth == 0 {
			b.removeActive(t)
			ts.c.Inc(t) // the end tick that stamps this end's snapshot
			b.handleEnd(t, e)
		}

	case trace.Read:
		x := e.Target
		v := b.ensureVar(int(x))
		if v.lastW != int32(t) && b.checkAndGetW(v, t, e, CheckRead) {
			break
		}
		ct := ts.c
		if ts.depth > 0 {
			b.addStaleReader(v, int32(t))
		} else {
			// Unary read: flush eagerly; the unary transaction is complete,
			// so the live clock must not be consulted later. A repeat flush
			// by the same thread under an unchanged clock is a no-op.
			if c := b.coldOf(v); !(c.readSlot.thread == int32(t) && c.readSlot.ctVer == ct.Ver()) {
				b.joinR(v, ct, t)
				c.readSlot = flushSlot{thread: int32(t), ctVer: ct.Ver()}
			}
		}
		b.cover(v, x, ct, kindR)

	case trace.Write:
		x := e.Target
		v := b.ensureVar(int(x))
		if v.lastW != int32(t) && b.checkAndGetW(v, t, e, CheckWriteWrite) {
			break
		}
		// Repeat-write fast path: the same thread rewriting x inside the
		// same transaction with its clock, R_x, W_x and ȒR_x(t) unchanged
		// re-runs a handler whose O(width) steps are all no-ops; only the
		// O(active) cover below still has observable work to do.
		if v.lastW == int32(t) && v.stale0 == nilThread && b.repeatWrite(v, ts, int32(t)) {
			b.cover(v, x, ts.c, kindW)
			break
		}
		// Flush stale readers with their live clocks. A flush of C_t alone
		// keeps t's absorb epoch.
		if v.stale0 != nilThread {
			keep := b.rxAbsorbed(v, int32(t))
			if b.flushStaleReaders(v, x, int32(t)) && keep {
				b.cold[v.cold].rxAbsVer = b.cold[v.cold].rx.Ver()
			}
		}
		// The ȒR check: ∃u≠t with C⊲_t ⊑ R_{u,x}, via the begin stamp (see
		// the package comment).
		if ts.depth > 0 && ts.begin <= b.hrxAt(v, t) {
			b.viol = &Violation{
				Index: b.n, Event: e, ActiveThread: e.Thread,
				Check: CheckWriteRead, Algorithm: b.Name(),
			}
			break
		}
		// Absorb R_x, skipping each part C_t provably holds already. A ⊥
		// owned R_x needs no join.
		if p := v.pendR; p != noSnap {
			if b.snapBelow(p, t) {
				b.joinsSkipped++
			} else {
				b.settleR(v)
			}
		}
		if b.rxAbsorbed(v, int32(t)) {
			b.joinsSkipped++
		} else {
			v.rxAbs = int32(t)
			if v.flags&varOwnR != 0 {
				c := b.cold[v.cold]
				b.absorb(t, &c.rx)
				c.rxAbsVer = c.rx.Ver()
			}
		}
		if ts.depth > 0 {
			v.flags |= varStaleW // lazy: readers consult C_t while the txn runs
		} else {
			b.coldOf(v).w.CopyFrom(ts.c) // unary write: eager, overwriting any pending W_x
			v.flags = v.flags&^varStaleW | varOwnW
			if p := v.pendW; p != noSnap {
				v.pendW = noSnap
				b.releaseSnapshot(p)
			}
		}
		v.lastW = int32(t)
		b.cover(v, x, ts.c, kindW)
		v.wsThread, v.wsCtVer = int32(t), ts.c.Ver()
		if v.flags&(varOwnR|varOwnW) != 0 {
			c := b.cold[v.cold]
			c.wsRxVer, c.wsWVer, c.wsHrx = c.rx.Ver(), c.w.Ver(), c.hrx.At(t)
		}

	case trace.Acquire:
		l := b.ensureLock(int(e.Target))
		if l.lastRel != int32(t) {
			if b.checkAndGet(l.l, t, e, CheckAcquire, &l.slot) {
				break
			}
		}

	case trace.Release:
		li := e.Target
		l := b.ensureLock(int(li))
		l.l.CopyFrom(ts.c)
		if l.lastRel != int32(t) {
			if l.lastRel != nilThread {
				b.dropRelLock(l.lastRel, l.relIdx)
			}
			l.lastRel = int32(t)
			l.relIdx = int32(len(ts.relLocks))
			ts.relLocks = append(ts.relLocks, li)
		}
		b.markLockDirty(li, ts.c)

	case trace.Fork:
		u := int(e.Target)
		us := b.ensureThread(u)
		us.c.Join(b.threads[t].c)
		if u != t {
			us.foreign = true // the parent clock carries t's component
		}
		b.markThreadDirty(u, b.threads[t].c)

	case trace.Join:
		us := b.ensureThread(int(e.Target))
		// See Basic: never-ran threads contribute no ≤CHB edges.
		if us.ran {
			if b.checkAndGet(us.c, t, e, CheckJoin, &us.joinSlot) {
				break
			}
		}
	}
	// Re-index: the fork/join cases may have grown b.threads, invalidating
	// the ts pointer captured above.
	b.threads[t].ran = true
	b.n++
	if b.viol != nil {
		return b.viol
	}
	return nil
}

// handleEnd implements Algorithm 3's end(t) with the full-propagation and
// garbage-collection branches. The foreign flag is the sticky incoming-edge
// test: C_t carries a foreign component (forked threads inherit the
// parent's components, so the printed "parent transaction alive" disjunct
// is subsumed).
func (b *Optimized) handleEnd(t int, e trace.Event) {
	ts := &b.threads[t]
	ct := ts.c

	if ts.foreign {
		b.endsProcessed++
		// Thread checks (the component test C⊲_t(t) ≤ C_u(t) is the
		// invariant form of C⊲_t ⊑ C_u), over the dirty-thread list: only
		// threads whose clock absorbed this transaction's begin stamp can
		// pass the gate. The violation pass runs first and reports the
		// lowest qualifying thread — the order the index sweep it replaces
		// would discover (the checks and joins are independent across
		// threads, so the split does not change any outcome).
		own := ts.begin
		violAt := -1
		for _, ui := range ts.dirtyThreads {
			us := &b.threads[ui]
			if us.c.At(t) >= own && us.depth > 0 && us.begin <= ct.At(int(ui)) &&
				(violAt < 0 || int(ui) < violAt) {
				violAt = int(ui)
			}
		}
		if violAt >= 0 {
			b.viol = &Violation{
				Index: b.n, Event: e, ActiveThread: trace.ThreadID(violAt),
				Check: CheckEnd, Algorithm: b.Name(),
			}
			return
		}
		for _, ui := range ts.dirtyThreads {
			us := &b.threads[ui]
			if us.c.At(t) >= own {
				us.c.Join(ct)
				us.foreign = true // ct carries t's begin stamp
				b.markThreadDirty(int(ui), ct)
			}
		}
		ts.dirtyThreads = ts.dirtyThreads[:0]
		for _, li := range ts.dirtyLocks {
			l := &b.locks[li]
			if l.l.At(t) >= own {
				l.l.Join(ct)
				b.markLockDirty(li, ct)
			}
		}
		ts.dirtyLocks = ts.dirtyLocks[:0]
		// The variable flushes are deferred: one shared snapshot of C_t,
		// taken at the first flush, stands in for every W_x/R_x/ȒR_x join.
		snap := int32(noSnap)
		for _, x := range ts.upd[kindW] {
			v := b.varAt(x)
			if v.flags&varStaleW == 0 || v.lastW == int32(t) {
				if snap == noSnap {
					snap = b.takeSnapshot(t)
				}
				b.deferW(v, snap)
				b.cover(v, x, ct, kindW)
			}
			if v.lastW == int32(t) {
				v.flags &^= varStaleW
			}
		}
		ts.upd[kindW] = ts.upd[kindW][:0]
		for _, x := range ts.upd[kindR] {
			v := b.varAt(x)
			if snap == noSnap {
				snap = b.takeSnapshot(t)
			}
			b.deferR(v, snap)
			b.removeStaleReader(v, int32(t))
			b.cover(v, x, ct, kindR)
		}
		ts.upd[kindR] = ts.upd[kindR][:0]
		return
	}

	// Garbage collection: the transaction has no incoming edges and can
	// never participate in a cycle; drop its lazy state instead of
	// propagating it (the paper's else-branch). The released-lock list
	// stands in for the lock-table sweep of the printed pseudocode.
	b.endsCollected++
	for _, x := range ts.upd[kindR] {
		b.removeStaleReader(b.varAt(x), int32(t))
	}
	ts.upd[kindR] = ts.upd[kindR][:0]
	for _, x := range ts.upd[kindW] {
		v := b.varAt(x)
		if v.lastW == int32(t) {
			v.flags &^= varStaleW
			v.lastW = nilThread
		}
	}
	ts.upd[kindW] = ts.upd[kindW][:0]
	for _, li := range ts.relLocks {
		b.locks[li].lastRel = nilThread
	}
	ts.relLocks = ts.relLocks[:0]
	ts.dirtyLocks = ts.dirtyLocks[:0]
	ts.dirtyThreads = ts.dirtyThreads[:0]
}
