// Code generated from optimized_generic.go by specialize_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/core -run TestHybridSpecializationInSync -update-hybrid-engine

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
type hybridEpochSlot struct {
	thread int32
	src    *hybridClock
	srcVer uint64
	begin  vc.Time
}

type hybridEngThread struct {
	c *hybridClock
	// begin is the begin stamp *hybridClock⊲_t(t) of the thread's last outermost
	// transaction. Under the local-time invariant it stands for the whole
	// begin clock: *hybridClock⊲_t ⊑ K ⟺ *hybridClock⊲_t(t) ≤ K(t) for every clock K the engine
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
	// updR / updW are the paper's UpdateSetʳ_t / UpdateSetʷ_t, as slices
	// of variable IDs deduplicated through the variables' markR/markW
	// (one entry per variable per transaction).
	updR, updW []int32
	// relLocks lists the locks whose lastRel is this thread, so the GC
	// path resets them without sweeping the lock table.
	relLocks []int32
	// dirtyLocks lists the locks whose clock may carry this thread's
	// current begin stamp, so the full propagation path visits only
	// locks that can satisfy L_ℓ(t) ≥ *hybridClock⊲_t(t).
	dirtyLocks []int32
	// dirtyThreads is the same for thread clocks: the threads whose clock
	// may carry this thread's current begin stamp. The full propagation
	// path's thread checks visit only these instead of sweeping b.threads.
	dirtyThreads []int32
	// markedT.At(u) is the begin stamp of the transaction that last put
	// thread u on dirtyThreads (cf. optLock.marked).
	markedT vc.Clock
	// joinSlot is the epoch for join(u) checks against this thread.
	joinSlot hybridEpochSlot
}

type hybridEngLock struct {
	l       *hybridClock
	lastRel int32
	// relIdx is this lock's position in the lastRel thread's relLocks.
	relIdx int32
	// marked.At(u) is the begin stamp of the transaction that last put
	// this lock on u's dirtyLocks (stamps strictly increase, so equality
	// means "already listed this transaction").
	marked vc.Clock
	slot   hybridEpochSlot
}

type hybridEngVar struct {
	w     *hybridClock
	lastW int32
	// staleW is the paper's Staleʷ_x = ⊤: the last write's timestamp has not
	// been written to w because the writing transaction is still running;
	// readers consult the writer's live clock instead.
	staleW bool
	rx     *hybridClock // R_x
	hrx    vc.Sparse    // ȒR_x (sparse in every representation; see clockRep)
	// staleR is the paper's Staleʳ_x: threads whose reads of x (inside still
	// running transactions) have not been flushed into rx/hrx.
	staleR []int32
	// markR/markW deduplicate update-set membership (see optThread.updR).
	markR, markW updMark
	slot         hybridEpochSlot
	// readSlot skips the unary-read flush (the O(width) rx/ȒR joins) when
	// the same thread re-reads x with an unchanged clock: both joins are
	// then no-ops. (coverRead still runs; it is O(active transactions).)
	readSlot flushSlot
	// writeSlot is the same for repeat writes: with no stale readers and
	// unchanged clocks, the write handler's flush, check and updates are
	// all idempotent (coverWrite still runs).
	writeSlot accessSlot
	// pendW / pendR are deferred end-event flushes (noSnap when none): pool
	// indices of snapshots that the represented W_x, R_x and ȒR_x still
	// have to absorb (see OptimizedOn).
	pendW, pendR int32
	// rxAbs / rxAbsVer are the absorb epoch of R_x: thread rxAbs joined rx
	// into its clock at rx version rxAbsVer, so while both match, the
	// write path's C_t ⊔= rx is a no-op for that thread.
	rxAbs    int32
	rxAbsVer uint64
}

// OptimizedOn is Algorithm 3 (Appendix *hybridClock.2) — AeroDrome with lazy clock
// updates, per-thread update sets, and garbage collection of transactions
// with no incoming edges — parameterized over the clock representation *hybridClock
// (flat vector clocks or tree clocks; see clockRep). On top of the paper's
// algorithm it keeps the per-event cost sublinear in thread count:
//
//   - an active-transaction registry replaces the all-threads scans of the
//     UpdateSet loops (coverRead/coverWrite touch only open transactions);
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
//     *hybridClock⊲_t ⊑ K ⟺ *hybridClock⊲_t(t) ≤ K(t) for every clock K the engine keeps, so no
//     begin clock is stored or compared.
//   - Update-set membership is one inline (thread, begin stamp) pair per
//     variable and access kind (updMark), spilled to a thread-indexed
//     vector only while a second running transaction lists the variable.
//
// Each shortcut answers a question exactly as the full computation would,
// so verdicts, violation indices and GC decisions are the eager engine's;
// EngineStats.JoinsSkipped counts the joins and settles skipped.
type OptimizedHybrid struct {
	newClock func() *hybridClock
	// newAux, when non-nil, constructs the auxiliary-accumulator clocks
	// (lock clocks, W_x, R_x, snapshots) instead of newClock: the hybrid
	// engine keeps those flat while the thread clocks are trees. The
	// uniform engines leave it nil and use one constructor for both.
	newAux  func() *hybridClock
	name    string
	threads []hybridEngThread
	locks   []hybridEngLock
	vars    []hybridEngVar
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
	// hrx allocated by ensureVar points its counter here.
	sparsePromotions int64
	// repStats, set by the hybrid/auto constructors, shares the
	// representation-transition counters with the thread clocks.
	repStats *repStats
	// The deferred-flush snapshot pool: snaps[s] is a copy of thread
	// snapOwner[s]'s clock taken at one of its full-propagation ends,
	// snapStamp[s] is that copy's owner component (see snapBelow), and
	// snapRefs[s] pending slots name it; snapFree lists the entries with
	// no references, ready for reuse.
	snaps     []*hybridClock
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

// Name implements Engine.
func (b *OptimizedHybrid) Name() string { return b.name }

// Processed implements Engine.
func (b *OptimizedHybrid) Processed() int64 { return b.n }

// Violation implements Engine.
func (b *OptimizedHybrid) Violation() *Violation { return b.viol }

// EndStats reports how many outermost end events took the full propagation
// path vs. the GC fast path.
func (b *OptimizedHybrid) EndStats() (full, collected int64) {
	return b.endsProcessed, b.endsCollected
}

// Stats implements StatsReporter.
func (b *OptimizedHybrid) Stats() EngineStats {
	s := EngineStats{
		EpochHits:        b.epochHits,
		EpochMisses:      b.epochMisses,
		EndsFull:         b.endsProcessed,
		EndsCollected:    b.endsCollected,
		SparsePromotions: b.sparsePromotions,
		FlushesDeferred:  b.flushesDeferred,
		FlushesSettled:   b.flushesSettled,
		JoinsSkipped:     b.joinsSkipped,
	}
	if b.repStats != nil {
		s.TreeDemotions = b.repStats.demotions
		s.TreeRepromotions = b.repStats.repromotions
		s.WidthPromotions = b.repStats.widthPromotions
	}
	return s
}

func (b *OptimizedHybrid) ensureThread(t int) *hybridEngThread {
	for len(b.threads) <= t {
		b.threads = append(b.threads, hybridEngThread{activeIdx: -1})
	}
	ts := &b.threads[t]
	if !ts.init {
		ts.c = b.newClock()
		ts.c.InitUnit(t)
		ts.init = true
	}
	return ts
}

// newAuxClock constructs an auxiliary-accumulator clock (see newAux).
func (b *OptimizedHybrid) newAuxClock() *hybridClock {
	if b.newAux != nil {
		return b.newAux()
	}
	return b.newClock()
}

func (b *OptimizedHybrid) ensureLock(l int) *hybridEngLock {
	for len(b.locks) <= l {
		b.locks = append(b.locks, hybridEngLock{lastRel: nilThread, relIdx: -1})
	}
	lk := &b.locks[l]
	var zero *hybridClock
	if lk.l == zero {
		// Lazy clock allocation: only locks that are actually used pay for
		// their clock (the pool can be much larger than the touched set).
		lk.l = b.newAuxClock()
	}
	return lk
}

func (b *OptimizedHybrid) ensureVar(x int) *hybridEngVar {
	for len(b.vars) <= x {
		b.vars = append(b.vars, hybridEngVar{lastW: nilThread, pendW: noSnap, pendR: noSnap, rxAbs: nilThread})
	}
	v := &b.vars[x]
	var zero *hybridClock
	if v.w == zero {
		// Lazy clock allocation, as in ensureLock.
		v.w = b.newAuxClock()
		v.rx = b.newAuxClock()
		v.hrx.CountPromotionsInto(&b.sparsePromotions)
	}
	return v
}

// violates implements the violation half of checkAndGet: with t inside a
// transaction, *hybridClock⊲_t ⊑ clk is a violation. Under the local-time invariant
// the test is *hybridClock⊲_t(t) ≤ clk(t).
func (b *OptimizedHybrid) violates(clk *hybridClock, t int, e trace.Event, check CheckKind) bool {
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
// violation if *hybridClock⊲_t ⊑ clk and t has an active transaction, else C_t ⊔= clk.
// slot is the epoch cache for this (source, thread) pair.
func (b *OptimizedHybrid) checkAndGet(clk *hybridClock, t int, e trace.Event, check CheckKind, slot *hybridEpochSlot) bool {
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
	*slot = hybridEpochSlot{thread: int32(t), src: clk, srcVer: srcVer, begin: begin}
	return false
}

// checkAndGetW is checkAndGet against the represented W_x: the writer's
// live clock while its transaction is still running (Staleʷ = ⊤),
// otherwise w ⊔ the pending snapshot. The snapshot is consulted without
// settling it: it is joined straight into C_t unless snapBelow shows C_t
// holds it already, and w goes through the epoch slot.
func (b *OptimizedHybrid) checkAndGetW(v *hybridEngVar, t int, e trace.Event, check CheckKind) bool {
	if v.staleW && v.lastW >= 0 {
		return b.checkAndGet(b.threads[v.lastW].c, t, e, check, &v.slot)
	}
	if p := v.pendW; p != noSnap {
		if b.violates(b.snaps[p], t, e, check) {
			return true
		}
		if b.snapBelow(p, t) {
			b.skipJoin(t)
		} else {
			b.absorb(t, b.snaps[p])
		}
		if v.w.Ver() == 0 {
			return false // w never changed, so it is ⊥: W_x is the snapshot
		}
	}
	return b.checkAndGet(v.w, t, e, check, &v.slot)
}

// absorb joins clk into C_t and keeps the foreign flag and the dirty-thread
// lists in step with it.
func (b *OptimizedHybrid) absorb(t int, clk *hybridClock) {
	ts := &b.threads[t]
	ts.c.Join(clk)
	if !ts.foreign && clk.HasEntryOtherThan(t) {
		ts.foreign = true
	}
	b.markThreadDirty(t, clk)
}

// skipJoin accounts for a join into C_t skipped because C_t provably holds
// its source already.
func (b *OptimizedHybrid) skipJoin(t int) {
	b.joinsSkipped++
	b.threads[t].c.NoteSkippedJoin()
}

// snapBelow reports whether snapshot s ⊑ C_u, in O(1): C_u's owner
// component has reached the stamp of the end tick that took s (see
// OptimizedOn).
func (b *OptimizedHybrid) snapBelow(s int32, u int) bool {
	return b.threads[u].c.At(int(b.snapOwner[s])) >= b.snapStamp[s]
}

// takeSnapshot copies thread t's clock into a pooled snapshot for the
// deferred flushes of one end event and returns its pool index. The
// caller gives it its first reference right away.
func (b *OptimizedHybrid) takeSnapshot(t int) int32 {
	var s int32
	if n := len(b.snapFree); n > 0 {
		s = b.snapFree[n-1]
		b.snapFree = b.snapFree[:n-1]
	} else {
		s = int32(len(b.snaps))
		b.snaps = append(b.snaps, b.newAuxClock())
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
func (b *OptimizedHybrid) releaseSnapshot(s int32) {
	b.snapRefs[s]--
	if b.snapRefs[s] == 0 {
		b.snapFree = append(b.snapFree, s)
	}
}

// deferW records snapshot s as v's pending W_x flush. A pending snapshot
// of another owner is settled first; one of the same owner is superseded
// (s dominates it, thread clocks only grow).
func (b *OptimizedHybrid) deferW(v *hybridEngVar, s int32) {
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
	v.writeSlot.thread = nilThread
}

// deferR is deferW for the pending R_x / ȒR_x flush.
func (b *OptimizedHybrid) deferR(v *hybridEngVar, s int32) {
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
	v.writeSlot.thread = nilThread
}

// settleW joins v's pending snapshot into w.
func (b *OptimizedHybrid) settleW(v *hybridEngVar) {
	p := v.pendW
	v.w.Join(b.snaps[p])
	v.pendW = noSnap
	b.releaseSnapshot(p)
	b.flushesSettled++
}

// settleR joins v's pending snapshot into rx and, zeroed at its owner,
// into hrx.
func (b *OptimizedHybrid) settleR(v *hybridEngVar) {
	p := v.pendR
	snap := b.snaps[p]
	v.rx.Join(snap)
	snap.JoinZeroingInto(&v.hrx, int(b.snapOwner[p]))
	v.pendR = noSnap
	b.releaseSnapshot(p)
	b.flushesSettled++
}

// hrxAt returns component t of the represented ȒR_x without settling.
func (b *OptimizedHybrid) hrxAt(v *hybridEngVar, t int) vc.Time {
	h := v.hrx.At(t)
	if p := v.pendR; p != noSnap && b.snapOwner[p] != int32(t) {
		h = max(h, b.snaps[p].At(t))
	}
	return h
}

// coverRead records x in the update set of every thread whose active
// transaction's begin is dominated by clk (the paper's UpdateSetʳ loop).
// Under the local-time invariant, *hybridClock⊲_u ⊑ clk ⟺ *hybridClock⊲_u(u) ≤ clk(u), and only
// threads on the active list can qualify.
func (b *OptimizedHybrid) coverRead(x int32, clk *hybridClock) {
	m := &b.vars[x].markR
	for _, u := range b.active {
		us := &b.threads[u]
		if us.begin <= clk.At(int(u)) && !m.has(u, us.begin) {
			b.mark(m, u)
			us.updR = append(us.updR, x)
		}
	}
}

// coverWrite is coverRead for UpdateSetʷ.
func (b *OptimizedHybrid) coverWrite(x int32, clk *hybridClock) {
	m := &b.vars[x].markW
	for _, u := range b.active {
		us := &b.threads[u]
		if us.begin <= clk.At(int(u)) && !m.has(u, us.begin) {
			b.mark(m, u)
			us.updW = append(us.updW, x)
		}
	}
}

// mark lists the running transaction of thread u in m, which does not list
// it yet (the callers test m.has inline; this is the rarer, slower half).
// It takes the inline pair over unless that pair names another transaction
// that is still running; then u spills to the thread-indexed vector.
func (b *OptimizedHybrid) mark(m *updMark, u int32) {
	own := b.threads[u].begin
	// b.threads[m.t] exists: thread u does, and the slice grows densely.
	if o := &b.threads[m.t]; m.t == u || o.activeIdx < 0 || o.begin != m.stamp {
		m.t, m.stamp = u, own
	} else {
		m.spill = m.spill.Set(int(u), own)
	}
}

// markThreadDirty lists thread u on the dirty-thread list of every active
// transaction whose begin stamp appears in clk, which was just joined
// into u's clock. Thread clocks change only at the join sites that call
// this (absorb, fork, and end-event propagation) and at u's own ticks,
// so at any thread's end event every thread with C_u(t) ≥ *hybridClock⊲_t(t) is on
// t's list (stale entries are re-checked there).
func (b *OptimizedHybrid) markThreadDirty(u int, clk *hybridClock) {
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
// this, so at any thread's end event every lock with L_ℓ(t) ≥ *hybridClock⊲_t(t) is
// on that thread's list (stale entries are re-checked there).
func (b *OptimizedHybrid) markLockDirty(li int32, clk *hybridClock) {
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
func (b *OptimizedHybrid) dropRelLock(owner int32, idx int32) {
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
func (b *OptimizedHybrid) removeActive(t int) {
	ts := &b.threads[t]
	last := len(b.active) - 1
	moved := b.active[last]
	b.active[ts.activeIdx] = moved
	b.active = b.active[:last]
	b.threads[moved].activeIdx = ts.activeIdx
	ts.activeIdx = -1
}

// Process implements Engine.
func (b *OptimizedHybrid) Process(e trace.Event) *Violation {
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
			v.addStaleReader(int32(t))
		} else {
			// Unary read: flush eagerly; the unary transaction is complete,
			// so the live clock must not be consulted later. A repeat flush
			// by the same thread under an unchanged clock is a no-op.
			if !(v.readSlot.thread == int32(t) && v.readSlot.ctVer == ct.Ver()) {
				v.rx.Join(ct)
				ct.JoinZeroingInto(&v.hrx, t)
				v.readSlot = flushSlot{thread: int32(t), ctVer: ct.Ver()}
			}
		}
		b.coverRead(x, ct)

	case trace.Write:
		x := e.Target
		v := b.ensureVar(int(x))
		if v.lastW != int32(t) && b.checkAndGetW(v, t, e, CheckWriteWrite) {
			break
		}
		// Repeat-write fast path: the same thread rewriting x inside the
		// same transaction with its clock, R_x, W_x and ȒR_x(t) unchanged
		// re-runs a handler whose O(width) steps are all no-ops; only the
		// O(active) coverWrite below still has observable work to do.
		if v.lastW == int32(t) && len(v.staleR) == 0 &&
			v.writeSlot.thread == int32(t) && v.writeSlot.ctVer == ts.c.Ver() &&
			v.writeSlot.rxVer == v.rx.Ver() && v.writeSlot.wVer == v.w.Ver() &&
			v.writeSlot.begin == ts.begin &&
			v.writeSlot.wasInTxn == (ts.depth > 0) &&
			v.writeSlot.hrxAtT == v.hrx.At(t) {
			b.coverWrite(x, ts.c)
			break
		}
		// Flush stale readers with their live clocks; record any newly
		// covered begins so end-time flushes stay exact. A flush of C_t
		// alone keeps rx ⊑ C_t, so it keeps t's absorb epoch too.
		keep := v.rxAbs == int32(t) && v.rxAbsVer == v.rx.Ver()
		for _, u := range v.staleR {
			uc := b.threads[u].c
			v.rx.Join(uc)
			uc.JoinZeroingInto(&v.hrx, int(u))
			b.coverRead(x, uc)
			keep = keep && u == int32(t)
		}
		v.staleR = v.staleR[:0]
		if keep {
			v.rxAbsVer = v.rx.Ver()
		}
		// The ȒR check: ∃u≠t with *hybridClock⊲_t ⊑ R_{u,x}, via the begin stamp (see
		// the package comment).
		if ts.depth > 0 && ts.begin <= b.hrxAt(v, t) {
			b.viol = &Violation{
				Index: b.n, Event: e, ActiveThread: e.Thread,
				Check: CheckWriteRead, Algorithm: b.Name(),
			}
			break
		}
		// Absorb R_x, skipping each part C_t provably holds already.
		if p := v.pendR; p != noSnap {
			if b.snapBelow(p, t) {
				b.joinsSkipped++
			} else {
				b.settleR(v)
			}
		}
		if v.rxAbs == int32(t) && v.rxAbsVer == v.rx.Ver() {
			b.skipJoin(t)
		} else {
			b.absorb(t, v.rx)
			v.rxAbs, v.rxAbsVer = int32(t), v.rx.Ver()
		}
		if ts.depth > 0 {
			v.staleW = true // lazy: readers consult C_t while the txn runs
		} else {
			v.w.CopyFrom(ts.c) // unary write: eager, overwriting any pending W_x
			if p := v.pendW; p != noSnap {
				v.pendW = noSnap
				b.releaseSnapshot(p)
			}
			v.staleW = false
		}
		v.lastW = int32(t)
		b.coverWrite(x, ts.c)
		v.writeSlot = accessSlot{
			thread: int32(t), wasInTxn: ts.depth > 0,
			ctVer: ts.c.Ver(), rxVer: v.rx.Ver(), wVer: v.w.Ver(),
			begin: ts.begin, hrxAtT: v.hrx.At(t),
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
func (b *OptimizedHybrid) handleEnd(t int, e trace.Event) {
	ts := &b.threads[t]
	ct := ts.c

	if ts.foreign {
		b.endsProcessed++
		// Thread checks (the component test *hybridClock⊲_t(t) ≤ C_u(t) is the
		// invariant form of *hybridClock⊲_t ⊑ C_u), over the dirty-thread list: only
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
		for _, x := range ts.updW {
			v := &b.vars[x]
			if !v.staleW || v.lastW == int32(t) {
				if snap == noSnap {
					snap = b.takeSnapshot(t)
				}
				b.deferW(v, snap)
				b.coverWrite(x, ct)
			}
			if v.lastW == int32(t) {
				v.staleW = false
			}
		}
		ts.updW = ts.updW[:0]
		for _, x := range ts.updR {
			v := &b.vars[x]
			if snap == noSnap {
				snap = b.takeSnapshot(t)
			}
			b.deferR(v, snap)
			v.removeStaleReader(int32(t))
			b.coverRead(x, ct)
		}
		ts.updR = ts.updR[:0]
		return
	}

	// Garbage collection: the transaction has no incoming edges and can
	// never participate in a cycle; drop its lazy state instead of
	// propagating it (the paper's else-branch). The released-lock list
	// stands in for the lock-table sweep of the printed pseudocode.
	b.endsCollected++
	for _, x := range ts.updR {
		b.vars[x].removeStaleReader(int32(t))
	}
	ts.updR = ts.updR[:0]
	for _, x := range ts.updW {
		v := &b.vars[x]
		if v.lastW == int32(t) {
			v.staleW = false
			v.lastW = nilThread
		}
	}
	ts.updW = ts.updW[:0]
	for _, li := range ts.relLocks {
		b.locks[li].lastRel = nilThread
	}
	ts.relLocks = ts.relLocks[:0]
	ts.dirtyLocks = ts.dirtyLocks[:0]
	ts.dirtyThreads = ts.dirtyThreads[:0]
}

func (v *hybridEngVar) addStaleReader(t int32) {
	for _, u := range v.staleR {
		if u == t {
			return
		}
	}
	v.staleR = append(v.staleR, t)
}

func (v *hybridEngVar) removeStaleReader(t int32) {
	for i, u := range v.staleR {
		if u == t {
			v.staleR[i] = v.staleR[len(v.staleR)-1]
			v.staleR = v.staleR[:len(v.staleR)-1]
			return
		}
	}
}
