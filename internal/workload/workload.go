// Package workload generates deterministic, well-formed synthetic traces
// that reproduce the dynamics of the paper's benchmark programs (Tables 1
// and 2). It substitutes for the RoadRunner-instrumented Java benchmarks
// (DaCapo, Java Grande, microbenchmarks) whose logged traces the paper
// analyzes: both checkers consume the same generated stream (same seed ⇒
// identical trace), mirroring the paper's same-logged-trace methodology.
//
// The performance phenomenon under study is controlled by three knobs that
// the patterns expose:
//
//   - retention: how many transactions stay live in Velodrome's graph
//     (long-lived "hub" transactions pin their successors, defeating GC);
//   - absorption: how often a long-lived transaction acquires an incoming
//     edge, which forces cycle checks over the whole retained graph;
//   - violation position: where (if at all) the first real cycle closes.
//
// Generators are streaming (trace.Source): traces far larger than memory
// can be produced and checked online without materialization.
package workload

import (
	"fmt"
	"math/rand"

	"aerodrome/internal/trace"
)

// Pattern selects the sharing structure of the generated trace body.
type Pattern string

const (
	// PatternHub keeps two long-lived transactions open (threads 0 and 1);
	// every worker transaction reads a hub variable and is therefore pinned
	// in Velodrome's graph, which grows linearly, and retained workers
	// periodically hand a fresh variable to the second hub, giving it
	// incoming edges whose cycle checks traverse the whole retained cone
	// (see hubRound). Reproduces the Table 1 rows where Velodrome times out
	// (avrora, lusearch, moldyn, montecarlo, raytracer) or lags by orders
	// of magnitude (elevator, sunflow).
	PatternHub Pattern = "hub"
	// PatternChain passes a token between worker transactions: conflicts
	// always point forward, the graph garbage-collects down to O(threads)
	// nodes and Velodrome stays fast. Reproduces rows with speedup ≈ 1
	// (hedc, luindex, pmd, sor, xalan, and Table 2).
	PatternChain Pattern = "chain"
	// PatternSharded keeps accesses thread-private with all events outside
	// transactions except a configurable fraction. Reproduces philo (no
	// transactions at all) and tsp (312M events, 9 transactions).
	PatternSharded Pattern = "sharded"
	// PatternPhase is a phase-changing workload: a chain burst (densely
	// entangled token passing) for the first PhaseSplit of the body, then
	// a sharded steady state (thread-private accesses).
	PatternPhase Pattern = "phase"
	// PatternProducerConsumer splits the workers into producers and
	// consumers over a bounded ring of slot variables: each round one
	// producer transaction writes the next slot and one consumer
	// transaction reads the slot written half a ring earlier. Conflict
	// edges flow producer → consumer (write-read on the slot) and
	// consumer → later producer (the anti-dependency when the slot is
	// overwritten), always forward in commit order, so the body stays
	// conflict serializable while every clock join crosses the
	// producer/consumer group boundary.
	PatternProducerConsumer Pattern = "prodcons"
	// PatternBarrier runs the body in barrier-synchronized phases: every
	// worker transaction does private work and writes its arrival flag,
	// then a coordinator transaction on the main thread reads all flags
	// and publishes a new generation variable that the next phase's
	// workers read first. The coordinator is a fan-in/fan-out hub for
	// vector-clock joins — the widest join shape the generator produces.
	PatternBarrier Pattern = "barrier"
	// PatternConvoy funnels every worker through one hot lock each round:
	// a short critical section over a single shared variable, then private
	// work outside the lock. The dense release→acquire chain entangles all
	// thread clocks through a single lock clock — the convoy shape that
	// keeps the lock's clock permanently hot.
	PatternConvoy Pattern = "convoy"
	// PatternThrash is the adversarial admission shape: bursts of tiny
	// one-write transactions, each touching a fresh, never-reused
	// variable. The variable space (and with it the server's interning
	// tables and per-variable auxiliary clocks) grows linearly with the
	// trace while per-transaction work stays minimal — maximum metadata
	// churn per byte of useful checking work, the trace-shape analogue of
	// a tenant thrashing its byte quota.
	PatternThrash Pattern = "thrash"
)

// Violation selects the kind of conflict-serializability violation to
// inject, if any.
type Violation string

const (
	// ViolationNone generates a conflict-serializable trace.
	ViolationNone Violation = "none"
	// ViolationCross injects the ρ2 pattern: two interleaved transactions
	// with crossing write/read pairs on two fresh variables.
	ViolationCross Violation = "cross"
	// ViolationDelayed injects the ρ4 pattern: a cycle that is completed
	// only by a third transaction after the first two have finished.
	ViolationDelayed Violation = "delayed"
	// ViolationLock injects a release/acquire ping-pong between two open
	// transactions on a fresh lock.
	ViolationLock Violation = "lock"
)

// Config parameterizes a generated workload.
type Config struct {
	// Name labels the workload (benchmark row name in the harness).
	Name string
	// Threads is the total thread count including the main thread (≥1).
	Threads int
	// Vars is the size of the body variable pool (injected violations use
	// fresh variables beyond this pool).
	Vars int
	// Locks is the size of the body lock pool.
	Locks int
	// Events is the approximate total trace length (the generator rounds to
	// whole transactions).
	Events int64
	// OpsPerTxn is the number of variable accesses inside each body
	// transaction.
	OpsPerTxn int
	// ReadFrac is the fraction of private accesses that are reads.
	ReadFrac float64
	// Pattern selects the sharing structure.
	Pattern Pattern
	// Inject selects the violation kind.
	Inject Violation
	// InjectAt positions the violation as a fraction of Events (0,1].
	InjectAt float64
	// AbsorbEvery makes a retained worker transaction hand a fresh variable
	// to the second hub every n rounds (hub pattern only; 0 disables),
	// giving the hub an incoming edge. Smaller values grow Velodrome's
	// per-event cycle-check cost faster.
	AbsorbEvery int
	// TxnFraction is the fraction of body rounds that run inside a
	// transaction (sharded and phase patterns; 0 = all unary, as in philo).
	TxnFraction float64
	// PhaseSplit is the fraction of Events spent in the chain burst before
	// the phase pattern switches to the sharded steady state (phase
	// pattern only; defaults to 0.3).
	PhaseSplit float64
	// Seed makes the stream deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.Vars < 1 {
		c.Vars = 1
	}
	if c.Locks < 1 {
		c.Locks = 1
	}
	if c.OpsPerTxn < 1 {
		c.OpsPerTxn = 4
	}
	// The zero value means "default"; generators wanting all-writes can set
	// any negative fraction.
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.6
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		c.ReadFrac = 0
	}
	if c.Pattern == "" {
		c.Pattern = PatternChain
	}
	// The hub pattern needs two hub threads plus at least one worker per
	// group; degenerate thread counts fall back to the chain pattern.
	if c.Pattern == PatternHub && c.Threads < 4 {
		c.Pattern = PatternChain
	}
	// Producer/consumer needs one worker per role; the barrier needs a
	// coordinator plus at least one worker. Degenerate counts fall back to
	// the chain pattern, like the hub.
	if (c.Pattern == PatternProducerConsumer && c.Threads < 3) ||
		(c.Pattern == PatternBarrier && c.Threads < 2) {
		c.Pattern = PatternChain
	}
	if c.Inject == "" {
		c.Inject = ViolationNone
	}
	if c.PhaseSplit <= 0 || c.PhaseSplit >= 1 {
		c.PhaseSplit = 0.3
	}
	if c.InjectAt <= 0 || c.InjectAt > 1 {
		c.InjectAt = 0.9
	}
	if c.Events < 16 {
		c.Events = 16
	}
	return c
}

// Generator streams the events of a workload. It implements trace.Source.
type Generator struct {
	cfg Config
	rng *rand.Rand

	buf []trace.Event
	pos int

	emitted    int64
	injectAt   int64
	injected   bool
	done       bool
	openTxn    []bool // worker body transactions are batch-local, but the hub's is long-lived
	hubOpen    bool
	round      int
	worker     int   // round-robin body worker
	injectVars int32 // next fresh variable id for injections
	injectLock int32
}

// New returns a streaming generator for the workload.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		injectAt:   int64(float64(cfg.Events) * cfg.InjectAt),
		openTxn:    make([]bool, cfg.Threads),
		injectVars: int32(cfg.Vars),
		injectLock: int32(cfg.Locks),
	}
	if cfg.Inject == ViolationNone {
		g.injected = true
		g.injectAt = cfg.Events + 1
	}
	g.prologue()
	return g
}

// Generate materializes the whole workload into a Trace (tests and small
// tools; the harness streams instead).
func Generate(cfg Config) *trace.Trace {
	return trace.Collect(New(cfg))
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Event, bool) {
	for g.pos >= len(g.buf) {
		if g.done {
			return trace.Event{}, false
		}
		g.refill()
	}
	e := g.buf[g.pos]
	g.pos++
	g.emitted++
	return e, true
}

func (g *Generator) emit(e trace.Event) { g.buf = append(g.buf, e) }

func (g *Generator) begin(t int) { g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Begin}) }
func (g *Generator) end(t int)   { g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.End}) }
func (g *Generator) read(t int, x int32) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Read, Target: x})
}
func (g *Generator) write(t int, x int32) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Write, Target: x})
}
func (g *Generator) acquire(t int, l int32) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Acquire, Target: l})
}
func (g *Generator) release(t int, l int32) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Release, Target: l})
}
func (g *Generator) fork(t, u int) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Fork, Target: int32(u)})
}
func (g *Generator) joinThread(t, u int) {
	g.emit(trace.Event{Thread: trace.ThreadID(t), Kind: trace.Join, Target: int32(u)})
}

// --- layout helpers ----------------------------------------------------------

// hubVarCount is how many variables the two hub transactions seed (split
// in halves between them).
func (g *Generator) hubVarCount() int {
	n := g.cfg.Vars / 8
	if n < 2 {
		n = 2
	}
	if n > 64 {
		n = 64
	}
	return n
}

// privateVar returns a variable from worker w's private shard.
func (g *Generator) privateVar(w int) int32 {
	lo := g.hubVarCount() + g.cfg.Threads // after hub vars and token vars
	span := g.cfg.Vars - lo
	if span <= g.cfg.Threads {
		// Tiny pools: fall back to a per-thread slot within the whole pool.
		return int32((lo + w) % g.cfg.Vars)
	}
	per := span / g.cfg.Threads
	if per < 1 {
		per = 1
	}
	off := g.rng.Intn(per)
	v := lo + (w%g.cfg.Threads)*per + off
	if v >= g.cfg.Vars {
		v = g.cfg.Vars - 1
	}
	return int32(v)
}

// tokenVar is the chain hand-off variable owned by worker w.
func (g *Generator) tokenVar(w int) int32 {
	return int32(g.hubVarCount() + (w % g.cfg.Threads))
}

// --- phases -------------------------------------------------------------------

// prologue forks all worker threads from the main thread and, for the hub
// pattern, opens the hub transaction and seeds the hub variables.
func (g *Generator) prologue() {
	for u := 1; u < g.cfg.Threads; u++ {
		g.fork(0, u)
	}
	if g.cfg.Pattern == PatternHub {
		h := g.hubVarCount()
		half := h / 2
		if half < 1 {
			half = 1
		}
		g.begin(0)
		g.openTxn[0] = true
		for i := 0; i < half; i++ {
			g.write(0, int32(i))
		}
		g.begin(1)
		g.openTxn[1] = true
		for i := half; i < h; i++ {
			g.write(1, int32(i))
		}
		g.hubOpen = true
	}
}

// epilogue closes open transactions and joins the workers.
func (g *Generator) epilogue() {
	if g.hubOpen {
		g.end(0)
		g.end(1)
		g.openTxn[0] = false
		g.openTxn[1] = false
		g.hubOpen = false
	}
	for u := 1; u < g.cfg.Threads; u++ {
		g.joinThread(0, u)
	}
	g.done = true
}

// refill produces the next batch of events into the buffer.
func (g *Generator) refill() {
	g.buf = g.buf[:0]
	g.pos = 0

	if !g.injected && g.emitted >= g.injectAt {
		g.injected = true
		g.inject()
		return
	}
	if g.emitted >= g.cfg.Events {
		g.epilogue()
		return
	}

	switch g.cfg.Pattern {
	case PatternHub:
		g.hubRound()
	case PatternChain:
		g.chainRound()
	case PatternSharded:
		g.shardedRound()
	case PatternPhase:
		if g.emitted < int64(float64(g.cfg.Events)*g.cfg.PhaseSplit) {
			g.chainRound()
		} else {
			g.shardedRound()
		}
	case PatternProducerConsumer:
		g.prodConsRound()
	case PatternBarrier:
		g.barrierRound()
	case PatternConvoy:
		g.convoyRound()
	case PatternThrash:
		g.thrashRound()
	default:
		g.chainRound()
	}
	g.round++
}

// bodyWorker returns the next worker thread in round-robin order. The main
// thread is skipped, and in the hub pattern thread 1 (hub2) is too.
func (g *Generator) bodyWorker() int {
	lo := 1
	if g.cfg.Pattern == PatternHub {
		lo = 2
	}
	if g.cfg.Threads <= lo {
		return g.cfg.Threads - 1
	}
	g.worker++
	return lo + (g.worker-1)%(g.cfg.Threads-lo)
}

// hubRound emits one worker transaction of the two-hub retention pattern.
//
// Thread 0 (hub1) and thread 1 (hub2) each keep one transaction open for
// the whole body, seeded with disjoint halves of the hub variable range.
// Workers are split into two disjoint groups:
//
//   - R1 workers read hub1's variables: every R1 transaction gets an
//     incoming edge from the live hub1 transaction, so Velodrome can never
//     collect it — the graph grows linearly.
//   - R2 workers read hub2's variables and are likewise pinned under hub2.
//
// Every AbsorbEvery rounds an R1 transaction writes a fresh hand-off
// variable that hub2 then reads: an edge from a *retained* R1 node into
// hub2, whose out-cone is the whole retained R2 mass. Each such insertion
// forces Velodrome's cycle check to traverse that cone, which is the
// quadratic blowup behind the paper's Table 1 timeout rows. The edge
// orientation is one-way by construction (hub1 → R1 → hub2 → R2, never
// backwards), so the body stays conflict serializable; locks are
// partitioned between the groups because a shared lock chain would close a
// real cycle R2 → R1 → hub2 → R2.
func (g *Generator) hubRound() {
	r2Start := g.r2GroupStart()
	absorb := g.cfg.AbsorbEvery > 0 && g.round%g.cfg.AbsorbEvery == g.cfg.AbsorbEvery-1

	var w int
	if absorb {
		// Absorb rounds always run on an R1 worker.
		w = 2 + g.round%(r2Start-2)
	} else {
		w = g.bodyWorker()
	}
	isR2 := w >= r2Start

	g.begin(w)
	if isR2 {
		g.read(w, g.hubVar(1))
	} else {
		g.read(w, g.hubVar(0))
	}
	if l, ok := g.groupLock(isR2); ok && g.round%3 == 2 {
		g.acquire(w, l)
		g.bodyAccess(w)
		g.release(w, l)
	}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.bodyAccess(w)
	}
	var handoff int32 = -1
	if absorb && !isR2 {
		handoff = g.freshVar()
		g.write(w, handoff)
	}
	g.end(w)

	if handoff >= 0 {
		// hub2 reads the fresh hand-off variable written by a retained R1
		// transaction: an incoming edge into the long-lived hub2 node.
		g.read(1, handoff)
	}
}

// hubVar picks a hub variable from group 0 (hub1's half) or 1 (hub2's).
func (g *Generator) hubVar(group int) int32 {
	h := g.hubVarCount()
	half := h / 2
	if half < 1 {
		half = 1
	}
	if group == 0 {
		return int32(g.rng.Intn(half))
	}
	v := half + g.rng.Intn(h-half)
	if v >= h {
		v = h - 1
	}
	return int32(v)
}

// r2GroupStart returns the first R2-group worker index. Workers occupy
// threads 2..Threads-1; the lower half is R1, the upper half R2 (at least
// one worker in each).
func (g *Generator) r2GroupStart() int {
	return 2 + (g.cfg.Threads-2+1)/2
}

// groupLock picks a lock from the group's partition of the lock pool;
// single-lock pools are reserved for the R1 group.
func (g *Generator) groupLock(isR2 bool) (int32, bool) {
	l := g.cfg.Locks
	if l <= 0 {
		return 0, false
	}
	if l == 1 {
		if isR2 {
			return 0, false
		}
		return 0, true
	}
	half := l / 2
	if isR2 {
		return int32(half + g.rng.Intn(l-half)), true
	}
	return int32(g.rng.Intn(half)), true
}

// chainRound hands a token from the previous worker to the next: conflicts
// point forward only, so Velodrome's GC keeps the graph tiny.
func (g *Generator) chainRound() {
	w := g.bodyWorker()
	prev := w - 1
	if prev < 1 {
		prev = g.cfg.Threads - 1
	}
	if g.cfg.Threads == 1 {
		prev = 0
	}
	g.begin(w)
	g.read(w, g.tokenVar(prev))
	if g.cfg.Locks > 0 && g.round%4 == 3 {
		l := int32(g.rng.Intn(g.cfg.Locks))
		g.acquire(w, l)
		g.bodyAccess(w)
		g.release(w, l)
	}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.bodyAccess(w)
	}
	g.write(w, g.tokenVar(w))
	g.end(w)
}

// prodConsRound emits one producer and one consumer transaction over the
// bounded slot ring (the token-variable region doubles as the ring). The
// consumer trails the producer by half the ring, so every slot it reads
// was written slotLag rounds earlier: the write-read edge points forward
// into the consumer, and the eventual overwrite's anti-dependency points
// forward into a later producer — acyclic by construction.
func (g *Generator) prodConsRound() {
	producers := (g.cfg.Threads - 1) / 2 // threads 1..producers are producers
	if producers < 1 {
		producers = 1
	}
	ring := g.cfg.Threads // slot count = token-region size
	slotLag := ring / 2
	if slotLag < 1 {
		slotLag = 1
	}

	p := 1 + g.round%producers
	g.begin(p)
	g.write(p, g.tokenVar(g.round%ring))
	if g.cfg.Locks > 0 && g.round%3 == 2 {
		l := int32(g.rng.Intn(g.cfg.Locks))
		g.acquire(p, l)
		g.bodyAccess(p)
		g.release(p, l)
	}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.bodyAccess(p)
	}
	g.end(p)

	if g.round >= slotLag {
		consumers := g.cfg.Threads - 1 - producers
		c := 1 + producers + g.round%consumers
		g.begin(c)
		g.read(c, g.tokenVar((g.round-slotLag)%ring))
		for i := 0; i < g.cfg.OpsPerTxn; i++ {
			g.bodyAccess(c)
		}
		g.end(c)
	}
}

// barrierRound emits one whole barrier phase: every worker transaction
// reads the previous phase's generation variable, does private work and
// writes its arrival flag; then the coordinator (the main thread, which
// no other pattern uses as a body worker) reads every flag and writes the
// next generation. Edges fan in to the coordinator and fan out to the
// next phase — forward only, so the body is conflict serializable.
func (g *Generator) barrierRound() {
	genVar := int32(0) // generation lives in the hub-variable region, unused here otherwise
	for w := 1; w < g.cfg.Threads; w++ {
		g.begin(w)
		if g.round > 0 {
			g.read(w, genVar)
		}
		for i := 0; i < g.cfg.OpsPerTxn; i++ {
			g.bodyAccess(w)
		}
		g.write(w, g.tokenVar(w)) // arrival flag
		g.end(w)
	}
	g.begin(0)
	for w := 1; w < g.cfg.Threads; w++ {
		g.read(0, g.tokenVar(w))
	}
	g.write(0, genVar)
	g.end(0)
}

// convoyRound funnels one worker transaction through the hot lock: a
// short critical section over the shared convoy variable, then private
// work outside the lock. Every round extends the single release→acquire
// chain through lock 0. A second, nested lock every few rounds keeps the
// critical sections properly nested rather than degenerate.
func (g *Generator) convoyRound() {
	w := g.bodyWorker()
	hot := int32(0)
	convoyVar := int32(0) // shared hot variable, hub region
	g.begin(w)
	g.acquire(w, hot)
	if g.cfg.Locks > 1 && g.round%4 == 1 {
		inner := int32(1 + g.rng.Intn(g.cfg.Locks-1))
		g.acquire(w, inner)
		g.read(w, convoyVar)
		g.release(w, inner)
	} else {
		g.read(w, convoyVar)
	}
	g.write(w, convoyVar)
	g.release(w, hot)
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.bodyAccess(w)
	}
	g.end(w)
}

// thrashRound emits a burst of tiny one-write transactions on fresh
// variables: OpsPerTxn transactions of three events each, every write
// touching a variable no other event will ever touch again. Serializable
// trivially; adversarial because the variable space grows without bound.
func (g *Generator) thrashRound() {
	w := g.bodyWorker()
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.begin(w)
		g.write(w, g.freshVar())
		g.end(w)
	}
}

// shardedRound emits thread-private accesses, inside a transaction for a
// TxnFraction of rounds and as unary events otherwise.
func (g *Generator) shardedRound() {
	w := g.bodyWorker()
	inTxn := g.rng.Float64() < g.cfg.TxnFraction
	if inTxn {
		g.begin(w)
	}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		g.bodyAccess(w)
	}
	if inTxn {
		g.end(w)
	}
}

func (g *Generator) bodyAccess(w int) {
	x := g.privateVar(w)
	if g.rng.Float64() < g.cfg.ReadFrac {
		g.read(w, x)
	} else {
		g.write(w, x)
	}
}

// inject emits the configured violation using fresh variables/locks so the
// preceding body stays serializable and the first cycle closes exactly
// here.
func (g *Generator) inject() {
	switch g.cfg.Inject {
	case ViolationCross:
		ws := g.injectWorkers(2)
		a, b := ws[0], ws[1]
		vx, vy := g.freshVar(), g.freshVar()
		g.begin(a)
		g.write(a, vx)
		g.begin(b)
		g.read(b, vx)
		g.write(b, vy)
		g.read(a, vy) // ← cycle closes: T_a → T_b → T_a
		g.end(a)
		g.end(b)
	case ViolationDelayed:
		ws := g.injectWorkers(3)
		a, b, c := ws[0], ws[1], ws[2]
		vx, vy, vz := g.freshVar(), g.freshVar(), g.freshVar()
		g.begin(a)
		g.write(a, vx)
		g.begin(b)
		g.write(b, vy)
		g.read(b, vx)
		g.end(b)
		g.begin(c)
		g.read(c, vy)
		g.write(c, vz)
		g.end(c)
		g.read(a, vz) // ← ρ4's delayed discovery
		g.end(a)
	case ViolationLock:
		ws := g.injectWorkers(2)
		a, b := ws[0], ws[1]
		l := g.injectLock
		g.injectLock++
		g.begin(a)
		g.acquire(a, l)
		g.release(a, l)
		g.begin(b)
		g.acquire(b, l)
		g.release(b, l)
		g.acquire(a, l) // ← cycle closes on the acquire
		g.release(a, l)
		g.end(a)
		g.end(b)
	}
}

// injectWorkers picks n distinct threads that have no open transaction
// (workers are batch-local, so any non-hub thread qualifies; with few
// threads the main thread may be used when it is not the hub).
func (g *Generator) injectWorkers(n int) []int {
	var ws []int
	for t := g.cfg.Threads - 1; t >= 0 && len(ws) < n; t-- {
		if g.openTxn[t] {
			continue
		}
		ws = append(ws, t)
	}
	for len(ws) < n {
		ws = append(ws, ws[len(ws)-1]) // degenerate fallback (single thread)
	}
	return ws
}

func (g *Generator) freshVar() int32 {
	v := g.injectVars
	g.injectVars++
	return v
}

// Describe summarizes the workload for harness output.
func (g *Generator) Describe() string {
	c := g.cfg
	return fmt.Sprintf("%s: %s pattern, %d threads, %d vars, %d locks, ~%d events, inject=%s@%.0f%%",
		c.Name, c.Pattern, c.Threads, c.Vars, c.Locks, c.Events, c.Inject, c.InjectAt*100)
}

// Config returns the (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }
