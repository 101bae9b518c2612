// Package treeclock implements the tree clock data structure of "A Tree
// Clock Data Structure for Causal Orderings in Concurrent Executions"
// (Mathur, Tunç, Pavlogiannis, Viswanathan; ASPLOS 2022), adapted to the
// clock discipline of the AeroDrome atomicity checker.
//
// A tree clock represents a vector time as a tree of per-thread entries.
// Each node remembers how its subtree's knowledge was acquired (from which
// thread, at which version), which lets Join and Leq skip entire subtrees
// the target already dominates: the cost of an operation is proportional
// to the number of entries that actually change, not to the total thread
// count.
//
// # Version streams instead of local clocks
//
// The ASPLOS 2022 construction keys subtree-skipping on the local clock of
// the source's root thread: "if I already have u's component at ≥ C_u(u),
// I have everything C_u knows". That inference is only sound for analyses
// (HB, FastTrack, SHB, …) that increment a thread's local clock at every
// release-style event, so a thread never publishes two different clock
// states under the same local time. AeroDrome increments a thread's local
// component only at transaction begins and ends, while the clock both
// absorbs and publishes knowledge in between; the local component
// therefore cannot version the clock's content. This implementation
// decouples the two: each thread-owned clock maintains a private version
// counter, bumped on every content mutation, and nodes carry
//
//	clk  — the semantic vector component for the node's thread (what At,
//	       Leq and Join operate on), and
//	ver  — a version claim: the whole tree dominates thread tid's clock
//	       at version ver, and the node's subtree is dominated by it.
//	aclk — the attachment claim: the parent node's thread had absorbed
//	       C_tid@ver by parent-version aclk (Unattributed when the
//	       attachment cannot be attributed, see below).
//
// AeroDrome also joins into auxiliary clocks (a completing transaction
// propagates into lock and write clocks), after which an auxiliary clock's
// content is no longer exactly "some thread's clock at some version". Such
// roots are marked inexact: their subtrees are never skipped wholesale and
// their new children attach Unattributed, but the rest of the tree keeps
// its claims, so pruning degrades locally instead of breaking globally.
//
// # Flat interop (the hybrid representation)
//
// The hybrid engine keeps tree clocks for the per-thread clocks but flat
// vc.Clocks for the auxiliary accumulators, so trees must absorb flat
// content (JoinFlat) and flat clocks must absorb trees (AbsorbIntoFlat).
// A flat source carries no version stream at all, so every entry
// a flat join raises or creates is unattributable: it gets ver 0 — "no
// claim" — and re-attaches directly under the root, whose refreshed
// whole-tree claim (owned roots) or vacuous one (inexact roots) covers it.
// The collect and Leq walks never skip a ver-0 node through its own claim;
// they may still skip it through a parent's subtree or attachment claim,
// which the re-attach discipline keeps truthful.
//
// All operations preserve the invariant that the represented vector equals
// what the flat vc.Clock operations would compute; the package tests check
// this against internal/vc on randomized operation sequences, and the
// engine-level differential tests check verdict and violation-index
// equality of the flat-clock and tree-clock checkers.
package treeclock

import (
	"fmt"
	"math"
	"strings"

	"aerodrome/internal/vc"
)

// Unattributed is the sentinel attachment version for subtrees that cannot
// be attributed to their parent thread's version stream (attachments made
// while joining into an auxiliary clock). Unattributed children sort first
// and never trigger the early sibling stop.
const Unattributed = vc.Time(math.MaxInt64)

// nilNode is the null node index.
const nilNode = int32(-1)

type node struct {
	tid  int32
	clk  vc.Time // semantic component of thread tid
	ver  vc.Time // version claim (see the package comment)
	aclk vc.Time // attachment claim against the parent's version stream

	parent int32
	head   int32 // first child (most recently attached)
	next   int32 // next younger sibling
	prev   int32 // previous (more recently attached) sibling
}

// Clock is a tree clock. The zero value is not ready for use; create
// clocks with New.
type Clock struct {
	nodes  []node
	tidIdx []int32 // tid → node index, nilNode when absent
	root   int32
	owner  int32   // owning thread for thread clocks, -1 for auxiliary
	vcnt   vc.Time // version stream head (owned clocks)
	exact  bool    // content == C_{root.tid}@root.ver exactly
	shared bool    // arena is aliased (copy-on-write; see alias)
	mut    uint64  // mutation counter (engine epoch fast paths)
	maxTid int32   // highest tid with a node, -1 when empty (flat interop)
	walk   []int32 // scratch for join collection

	// mirror is a flat snapshot of the represented vector, rebuilt lazily
	// at most once per mutation epoch (mirrorVer tracks mut). The bulk
	// flat-interop operations consume it so that flushing one ending
	// transaction's clock into many flat accumulators pays the node walk
	// once and a tight two-slice loop per accumulator. SharedFlatView hands
	// the snapshot out as an immutable alias (mirrorShared); the next
	// rebuild then allocates a fresh backing array instead of overwriting.
	mirror       vc.Clock
	mirrorVer    uint64
	mirrorNz     int
	mirrorShared bool

	// starBuf is the spare node arena joinFlatStar swaps against, so bulk
	// rebuilds recycle storage instead of allocating per join.
	starBuf []node
}

// New returns an empty auxiliary clock (⊥).
func New() *Clock {
	return &Clock{root: nilNode, owner: -1, maxTid: -1, mirrorVer: ^uint64(0)}
}

// flatView returns the flat snapshot of the represented vector, rebuilding
// it only when the clock mutated since the last call. Callers must treat
// the returned slice as read-only and must not retain it across mutations
// (SharedFlatView is the retaining variant).
func (c *Clock) flatView() vc.Clock {
	if c.mirrorVer != c.mut {
		if c.mirrorShared {
			// The previous snapshot is aliased by flat clocks: leave it to
			// them and build the new one in a fresh backing array.
			c.mirror, c.mirrorShared = nil, false
		}
		c.mirror = c.mirror[:0]
		c.mirrorNz = 0
		if c.maxTid >= 0 {
			n := int(c.maxTid) + 1
			if len(c.nodes) == n && n <= cap(c.mirror) {
				// Gap-free tree into recycled storage: every slot is
				// overwritten below, so skip Grow's zero-fill.
				c.mirror = c.mirror[:n]
			} else {
				c.mirror = c.mirror.Grow(n)
			}
			for i := range c.nodes {
				nd := &c.nodes[i]
				c.mirror[nd.tid] = nd.clk
				if nd.clk != 0 {
					c.mirrorNz++
				}
			}
		}
		c.mirrorVer = c.mut
	}
	return c.mirror
}

// SharedFlatView returns the flat snapshot of the represented vector as an
// immutable alias the caller may retain, plus its nonzero-component count:
// the hybrid engine's flat accumulators absorb whole thread clocks by
// holding the snapshot instead of copying it (copy-on-write assignment).
// Thread clocks grow monotonically, so a retained snapshot stays a valid
// lower bound of the source forever; the clock allocates a fresh backing
// array at the next rebuild rather than overwriting a handed-out one.
func (c *Clock) SharedFlatView() (vc.Clock, int) {
	m := c.flatView()
	c.mirrorShared = true
	return m, c.mirrorNz
}

// mirrorPatchable reports whether in-place updates may keep the mirror
// coherent (it is current) instead of invalidating it for a full rebuild.
// Callers that see true write changed components through patchMirror and
// then restamp mirrorVer to the new mutation count.
func (c *Clock) mirrorPatchable() bool {
	return c.mirrorVer == c.mut
}

// patchMirror applies one component update to a patchable mirror, growing
// it on demand and maintaining the nonzero count. A snapshot handed out
// through SharedFlatView is copied first (one memmove — far cheaper than
// the zero-fill-and-scatter rebuild the alternative invalidation would
// cost on the next flat-interop call). clk must be the new (joined, hence
// nondecreasing) value.
func (c *Clock) patchMirror(tid int32, clk vc.Time) {
	if c.mirrorShared {
		c.mirror = append(vc.Clock(nil), c.mirror...)
		c.mirrorShared = false
	}
	if int(tid) >= len(c.mirror) {
		c.mirror = c.mirror.Grow(int(tid) + 1)
	}
	if c.mirror[tid] == 0 && clk != 0 {
		c.mirrorNz++
	}
	c.mirror[tid] = clk
}

// InitUnit resets the clock to ⊥[1/t] and marks it as owned by thread t:
// this clock is C_t and carries t's version stream.
func (c *Clock) InitUnit(t int) {
	c.reset()
	c.owner = int32(t)
	c.vcnt = 1
	c.root = c.newNode(int32(t), 1, 1, Unattributed)
	c.exact = true
	c.mut++
}

func (c *Clock) reset() {
	if c.shared {
		// The arena is aliased by other clocks: abandon it to them.
		c.nodes, c.tidIdx, c.shared = nil, nil, false
	}
	c.nodes = c.nodes[:0]
	for i := range c.tidIdx {
		c.tidIdx[i] = nilNode
	}
	c.root = nilNode
	c.exact = false
	c.maxTid = -1
}

// alias makes c share o's arena without copying: assignments whose result
// is exactly the source (deep copies, dominated joins) are O(1), and the
// arena is copied out lazily by whichever side mutates first
// (materialize). End-event flushes write the same ending clock into many
// accumulators; with aliasing they cost one arena copy per source
// mutation epoch instead of one per accumulator.
func (c *Clock) alias(o *Clock) {
	if c.shared {
		c.nodes, c.tidIdx = nil, nil
	}
	c.nodes = o.nodes
	c.tidIdx = o.tidIdx
	c.root = o.root
	c.maxTid = o.maxTid
	c.shared = true
	o.shared = true
}

// materialize gives c its own copy of an aliased arena. Every mutating
// operation calls it before writing.
func (c *Clock) materialize() {
	if !c.shared {
		return
	}
	nodes, tidIdx := c.nodes, c.tidIdx
	c.nodes = append([]node(nil), nodes...)
	c.tidIdx = append([]int32(nil), tidIdx...)
	c.shared = false
}

func (c *Clock) newNode(tid int32, clk, ver, aclk vc.Time) int32 {
	idx := int32(len(c.nodes))
	c.nodes = append(c.nodes, node{
		tid: tid, clk: clk, ver: ver, aclk: aclk,
		parent: nilNode, head: nilNode, next: nilNode, prev: nilNode,
	})
	for int(tid) >= len(c.tidIdx) {
		c.tidIdx = append(c.tidIdx, nilNode)
	}
	c.tidIdx[tid] = idx
	if tid > c.maxTid {
		c.maxTid = tid
	}
	return idx
}

func (c *Clock) nodeOf(tid int32) int32 {
	if int(tid) >= len(c.tidIdx) {
		return nilNode
	}
	return c.tidIdx[tid]
}

// At returns the semantic component for thread t (0 when absent).
func (c *Clock) At(t int) vc.Time {
	if t < 0 || t >= len(c.tidIdx) {
		return 0
	}
	if n := c.tidIdx[t]; n != nilNode {
		return c.nodes[n].clk
	}
	return 0
}

// verOf returns the version claim this tree holds for thread tid (0 when
// it holds none).
func (c *Clock) verOf(tid int32) vc.Time {
	if n := c.nodeOf(tid); n != nilNode {
		return c.nodes[n].ver
	}
	return 0
}

// Inc increments component t. The clock must be owned by t (thread clocks
// increment only their own component, at transaction begins).
func (c *Clock) Inc(t int) {
	if c.root == nilNode || c.nodes[c.root].tid != int32(t) || c.owner != int32(t) {
		panic("treeclock: Inc on a clock not owned by the thread")
	}
	c.materialize()
	patch := c.mirrorPatchable()
	c.vcnt++
	r := &c.nodes[c.root]
	r.clk++
	r.ver = c.vcnt
	c.mut++
	if patch {
		c.patchMirror(r.tid, r.clk)
		c.mirrorVer = c.mut
	}
}

// Ver returns the mutation counter: it changes whenever the represented
// vector may have changed, so (clock identity, Ver) pairs serve as epochs
// for already-dominated fast paths.
func (c *Clock) Ver() uint64 { return c.mut }

// NumEntries returns the number of explicitly stored (nonzero) components.
func (c *Clock) NumEntries() int { return len(c.nodes) }

// HasEntryOtherThan reports whether some component other than t is
// nonzero.
func (c *Clock) HasEntryOtherThan(t int) bool {
	if len(c.nodes) > 1 {
		return true
	}
	return len(c.nodes) == 1 && c.nodes[c.root].tid != int32(t)
}

// detach unlinks node v from its parent's child list.
func (c *Clock) detach(v int32) {
	n := &c.nodes[v]
	if n.parent == nilNode {
		return
	}
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.nodes[n.parent].head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	}
	n.parent, n.next, n.prev = nilNode, nilNode, nilNode
}

// attach links v under p keeping the child list sorted by aclk descending
// (Unattributed first). Fresh attachments carry the newest claims, so the
// insertion point is almost always the list head.
func (c *Clock) attach(p, v int32, aclk vc.Time) {
	c.nodes[v].aclk = aclk
	c.nodes[v].parent = p
	prev := nilNode
	cur := c.nodes[p].head
	for cur != nilNode && c.nodes[cur].aclk > aclk {
		prev = cur
		cur = c.nodes[cur].next
	}
	n := &c.nodes[v]
	n.prev, n.next = prev, cur
	if prev == nilNode {
		c.nodes[p].head = v
	} else {
		c.nodes[prev].next = v
	}
	if cur != nilNode {
		c.nodes[cur].prev = v
	}
}

// Join sets c to c ⊔ o. Subtrees of o whose version claims the target
// already holds are skipped without being visited.
func (c *Clock) Join(o *Clock) {
	if o == c || o.root == nilNode {
		return
	}
	if c.root == nilNode {
		c.alias(o)
		c.exact = o.exact
		c.mut++
		return
	}
	or := &o.nodes[o.root]
	if o.exact && c.verOf(or.tid) >= or.ver {
		return // whole-tree fast path: everything o knows is already here
	}
	// Dominated-target fast path (auxiliary clocks only): when o already
	// holds this clock's root claim, c ⊑ o and the join result is o itself,
	// so the collect/attach walk collapses into a bulk copy. This is the
	// common shape of AeroDrome's end-event flushes — the ending
	// transaction absorbed R_x at its write event, so its final clock
	// dominates the accumulator it flushes into. (Owned clocks must keep
	// their own root and version stream, so they never take this path.)
	if c.owner < 0 && c.exact &&
		o.verOf(c.nodes[c.root].tid) >= c.nodes[c.root].ver {
		c.alias(o)
		c.exact = o.exact
		c.mut++
		return
	}

	// Collect the nodes of o that carry anything new (pre-order, so
	// parents precede children). The root is always collected: even when
	// its own entry is stale, an inexact root's children may be new.
	c.walk = c.walk[:0]
	c.collect(o, o.root)
	if len(c.walk) == 1 && c.verOf(or.tid) >= or.ver && c.At(int(or.tid)) >= or.clk {
		return // nothing new anywhere
	}

	// Absorb: update entries and re-attach updated subtrees mirroring the
	// source structure, so the new attachment claims are the source's own.
	c.materialize()
	patch := c.mirrorPatchable()
	aclkRoot := Unattributed
	if c.owner >= 0 {
		aclkRoot = c.vcnt + 1 // the post-join version, set below
	}
	for _, oi := range c.walk {
		on := &o.nodes[oi]
		v := c.nodeOf(on.tid)
		if v == nilNode {
			v = c.newNode(on.tid, on.clk, on.ver, Unattributed)
			if patch {
				c.patchMirror(on.tid, on.clk)
			}
		} else {
			n := &c.nodes[v]
			if on.clk > n.clk {
				n.clk = on.clk
				if patch {
					c.patchMirror(on.tid, on.clk)
				}
				if on.ver == 0 {
					// Unattributable content (a flat join, see JoinFlat)
					// raised this component: the node's old claim no longer
					// dominates its own entry, so drop it.
					n.ver = 0
				}
			}
			// Version claims upgrade monotonically, but never resurrect:
			// a demoted (ver-0) node's subtree may hold children attached
			// past any claim the source can transfer, so it stays
			// unattributable for good (pruning degrades locally; the walks
			// simply always visit it).
			if on.ver > n.ver && n.ver != 0 {
				n.ver = on.ver
			}
		}
		if v == c.root {
			continue // the root never moves
		}
		c.detach(v)
		if oi == o.root {
			c.attach(c.root, v, aclkRoot)
			continue
		}
		// The parent was collected earlier (pre-order), so its counterpart
		// exists and the source's attachment claim can carry over — but
		// only when the merged node's final claim is still covered by the
		// source's (ver ≤ on.ver and nonzero): the source claim
		// C_parent@aclk ⊒ C_tid@on.ver only chains to the target node's
		// subtree through the node's own claim. Unattributed subtrees,
		// ver-0 (unattributable) nodes, nodes whose retained claim exceeds
		// the source's, and children of demoted parents must not sit below
		// an attributed claim chain — the sibling-stop logic would skip
		// them on the strength of claims that do not cover their content —
		// so they re-root under the target root, whose claim covers them
		// (owned targets) or is vacuous (inexact auxiliary targets).
		if on.aclk == Unattributed || c.nodes[v].ver == 0 || c.nodes[v].ver > on.ver {
			c.attach(c.root, v, aclkRoot)
			continue
		}
		p := c.nodeOf(o.nodes[on.parent].tid)
		if p == nilNode || (p != c.root && c.nodes[p].ver == 0) {
			c.attach(c.root, v, aclkRoot)
			continue
		}
		c.attach(p, v, on.aclk)
	}

	if c.owner >= 0 {
		c.vcnt++
		c.nodes[c.root].ver = c.vcnt
		c.exact = true
	} else {
		// Foreign knowledge joined into an auxiliary clock: the content is
		// no longer attributable to the root thread's version stream.
		c.exact = false
	}
	c.mut++
	if patch {
		c.mirrorVer = c.mut
	}
}

// collect appends the source nodes that may carry new knowledge, in
// pre-order. A child whose version claim the target already holds is
// skipped with its whole subtree; once a child's attachment claim is
// covered by the target's claim for the parent thread, all remaining
// (older) siblings are skipped too. Ver-0 children carry no claim of their
// own (unattributable flat content) and are always collected.
func (c *Clock) collect(o *Clock, oi int32) {
	c.walk = append(c.walk, oi)
	on := &o.nodes[oi]
	pver := c.verOf(on.tid)
	for ch := on.head; ch != nilNode; ch = o.nodes[ch].next {
		cn := &o.nodes[ch]
		if cn.ver == 0 || c.verOf(cn.tid) < cn.ver {
			c.collect(o, ch)
			continue
		}
		if cn.aclk != Unattributed && cn.aclk <= pver {
			break // older siblings were attached at even earlier versions
		}
	}
}

// CopyFrom overwrites c with the contents of o (assignment; the paper's
// V := V' for unrelated clocks). The arenas are shared copy-on-write.
func (c *Clock) CopyFrom(o *Clock) {
	if o == c {
		return
	}
	ex := o.exact
	c.alias(o)
	c.exact = ex
	c.mut++
}

// NoteSkippedJoin is a no-op: it lets *Clock serve as an AeroDrome engine
// clock representation, whose hybrid variant counts skipped joins.
func (c *Clock) NoteSkippedJoin() {}

// Leq reports whether c ⊑ o, skipping subtrees whose version claims o
// already holds.
func (c *Clock) Leq(o *Clock) bool {
	if c == o || c.root == nilNode {
		return true
	}
	if c.exact && o.verOf(c.nodes[c.root].tid) >= c.nodes[c.root].ver {
		return true
	}
	return c.leqFrom(o, c.root)
}

func (c *Clock) leqFrom(o *Clock, vi int32) bool {
	n := &c.nodes[vi]
	if n.clk > o.At(int(n.tid)) {
		return false
	}
	over := o.verOf(n.tid)
	for ch := n.head; ch != nilNode; ch = c.nodes[ch].next {
		cn := &c.nodes[ch]
		if cn.ver > 0 && o.verOf(cn.tid) >= cn.ver {
			continue // subtree dominated by o's claim for this thread
		}
		if cn.aclk != Unattributed && cn.aclk <= over {
			break // o's claim for the parent thread covers the rest
		}
		if !c.leqFrom(o, ch) {
			return false
		}
	}
	return true
}

// JoinZeroingInto joins this clock's components into the sparse clock dst,
// ignoring component skip: dst ⊔= c[0/skip]. Used for the ȒR_x
// accumulators, which are sparse in every representation (they are read
// only through single components and updated only through zeroing joins,
// which fall outside the tree clock transfer discipline).
func (c *Clock) JoinZeroingInto(dst *vc.Sparse, skip int) {
	if c.maxTid < 0 {
		return
	}
	if len(c.nodes)*4 < int(c.maxTid)+1 {
		// Sparse tree (thread-sharded shape): touching the stored entries
		// beats scanning a width-proportional flat view.
		for i := range c.nodes {
			n := &c.nodes[i]
			if int(n.tid) != skip && n.clk != 0 {
				dst.JoinComponent(int(n.tid), n.clk)
			}
		}
		return
	}
	dst.JoinZeroing(c.flatView(), skip)
}

// JoinFlat sets c to c ⊔ o for a flat vector o: the hybrid engine's thread
// clocks absorbing flat auxiliary accumulators (lock clocks, W_x, R_x).
// Flat sources carry no version stream, so every entry the join raises or
// creates is unattributable: raised nodes lose their version claim (ver 0)
// and re-attach directly under the root, where the owned root's refreshed
// whole-tree claim covers them in future walks from this tree; see the
// package comment.
//
// The returned flag reports heavy churn — the join raced past most of the
// tree (a bulk star rebuild, or at least half the entries of a small
// tree) — the caller's signal that this clock's workload is defeating the
// tree structure (densely entangled chains) and a flat representation
// would serve it better.
func (c *Clock) JoinFlat(o vc.Clock) bool {
	// The star cutover scales with the tree: a bulk rebuild is O(entries),
	// so it must be amortized by a proportional number of raised entries
	// (absolute floor for small trees).
	threshold := starRebuildThreshold
	if t := len(c.nodes) / 4; t > threshold {
		threshold = t
	}
	changed := 0
	if c.mirrorVer == c.mut {
		m := c.mirror
		for i, v := range o {
			if v != 0 && (i >= len(m) || v > m[i]) {
				if changed++; changed > threshold {
					break
				}
			}
		}
	} else {
		// Stale mirror: probing the tree directly is cheaper than forcing
		// a width-proportional rebuild just to detect a no-op join.
		for i, v := range o {
			if v != 0 && v > c.At(i) {
				if changed++; changed > threshold {
					break
				}
			}
		}
	}
	if changed == 0 {
		return false
	}
	// Churn signal for the caller: either the star cutover fired, or —
	// for trees too small to ever reach the absolute floor — at least half
	// the entries were raised by this single join.
	churned := changed*2 > len(c.nodes) && changed >= 4
	c.materialize()
	if changed > threshold && c.root != nilNode {
		// Past the threshold the incremental detach/re-attach surgery costs
		// more than laying the whole tree out afresh as a star.
		c.joinFlatStar(c.flatView(), o)
		return true
	}
	patch := c.mirrorPatchable()
	if c.root == nilNode {
		// ⊥ target: build an unattributable tree from scratch.
		for i, v := range o {
			if v == 0 {
				continue
			}
			n := c.newNode(int32(i), v, 0, Unattributed)
			if c.root == nilNode {
				c.root = n
			} else {
				c.attach(c.root, n, Unattributed)
			}
		}
		c.exact = false
		c.mut++
		return false
	}
	aclk := Unattributed
	if c.owner >= 0 {
		c.vcnt++
		aclk = c.vcnt
	}
	for i, v := range o {
		if v == 0 {
			continue
		}
		n := c.nodeOf(int32(i))
		if n == nilNode {
			n = c.newNode(int32(i), v, 0, Unattributed)
			c.attach(c.root, n, aclk)
			if patch {
				c.patchMirror(int32(i), v)
			}
			continue
		}
		nd := &c.nodes[n]
		if v <= nd.clk {
			continue
		}
		nd.clk = v
		if patch {
			c.patchMirror(int32(i), v)
		}
		if n == c.root {
			// Owned roots are refreshed below; an auxiliary root whose own
			// entry was raised past its claim loses it.
			if c.owner < 0 {
				nd.ver = 0
			}
			continue
		}
		nd.ver = 0
		c.detach(n)
		c.attach(c.root, n, aclk)
	}
	if c.owner >= 0 {
		c.nodes[c.root].ver = c.vcnt
		c.exact = true
	} else {
		c.exact = false
	}
	c.mut++
	if patch {
		c.mirrorVer = c.mut
	}
	return churned
}

// starRebuildThreshold is the number of raised entries past which JoinFlat
// rebuilds the tree as a star instead of moving nodes one by one.
const starRebuildThreshold = 16

// joinFlatStar rebuilds c as a root-plus-leaves star holding c ⊔ o, for
// joins that raise many entries at once (a chain workload's token absorb
// races past most of the tree every lap). Unchanged entries keep their
// version claims — the tree only grew, so "tree ⊒ C_u@ver" still holds,
// and a leaf's subtree claim covers exactly its own entry — while raised
// entries are unattributable (ver 0) as in the incremental path. All
// children attach directly under the root, whose refreshed whole-tree
// claim (owned) or vacuous one (aux) covers them.
func (c *Clock) joinFlatStar(m, o vc.Clock) {
	width := len(m)
	if len(o) > width {
		width = len(o)
	}
	rootIdx := c.root
	rootTid := int(c.nodes[rootIdx].tid)
	rootVer := c.nodes[rootIdx].ver
	rootClk := m.At(rootTid)
	if v := o.At(rootTid); v > rootClk {
		rootClk = v
		if c.owner < 0 {
			rootVer = 0 // aux root raised past its claim (cf. JoinFlat)
		}
	}
	aclk := Unattributed
	if c.owner >= 0 {
		c.vcnt++
		aclk = c.vcnt
		rootVer = c.vcnt
	}
	for width > len(c.tidIdx) {
		c.tidIdx = append(c.tidIdx, nilNode)
	}
	buf := c.starBuf[:0]
	buf = append(buf, node{
		tid: int32(rootTid), clk: rootClk, ver: rootVer, aclk: Unattributed,
		parent: nilNode, head: nilNode, next: nilNode, prev: nilNode,
	})
	c.maxTid = int32(rootTid)
	prev := nilNode
	for i := 0; i < width; i++ {
		if i == rootTid {
			continue
		}
		v, ver := m.At(i), vc.Time(0)
		if ov := o.At(i); ov > v {
			v = ov // raised by unattributable flat content: ver stays 0
		} else if j := c.tidIdx[i]; j != nilNode {
			ver = c.nodes[j].ver // unchanged: the old claim still holds
		}
		if v == 0 {
			continue
		}
		idx := int32(len(buf))
		buf = append(buf, node{
			tid: int32(i), clk: v, ver: ver, aclk: aclk,
			parent: 0, head: nilNode, next: nilNode, prev: prev,
		})
		if prev == nilNode {
			buf[0].head = idx
		} else {
			buf[prev].next = idx
		}
		prev = idx
		c.tidIdx[i] = idx
		if int32(i) > c.maxTid {
			c.maxTid = int32(i)
		}
	}
	c.tidIdx[rootTid] = 0
	c.starBuf = c.nodes[:0]
	c.nodes = buf
	c.root = 0
	if c.owner >= 0 {
		c.exact = true
	} else {
		c.exact = false
	}
	c.mut++
	// The star pass computed the exact flat result; rebuild the mirror
	// from the tid-ordered node list now instead of re-walking later.
	if c.mirrorShared {
		c.mirror, c.mirrorShared = nil, false
	}
	c.mirror = c.mirror[:0].Grow(int(c.maxTid) + 1)
	c.mirrorNz = 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		c.mirror[nd.tid] = nd.clk
		if nd.clk != 0 {
			c.mirrorNz++
		}
	}
	c.mirrorVer = c.mut
}

// PromoteFromFlat rebuilds c as a thread clock owned by t holding the flat
// vector m (the hybrid representation's hysteresis re-promotion: a thread
// clock that demoted itself to flat during a churn phase converts back once
// its joins quiet down). The result is a root-plus-leaves star: the root
// carries t's entry and a fresh whole-tree claim, every other nonzero entry
// attaches as an unattributable (ver-0) leaf — flat content carries no
// version stream, exactly as in JoinFlat. verFloor seats BOTH counters
// strictly above the flat side's mutation count: the mutation counter, so
// engine epoch slots recorded against the flat representation
// conservatively miss, and the owner's version stream, so claims about
// this thread recorded by peer trees before the demotion stay strictly
// below every post-promotion claim. (Within any one tree's life mut ≥
// vcnt, and the flat side's mut was seated above the abandoned tree's at
// demotion, so verFloor exceeds every version this owner ever published;
// restarting the stream at 1 instead would let a peer's stale high claim
// skip joins of genuinely newer content.)
func (c *Clock) PromoteFromFlat(t int, m vc.Clock, verFloor uint64) {
	c.reset()
	c.owner = int32(t)
	c.vcnt = vc.Time(verFloor)
	if c.vcnt < 1 {
		c.vcnt = 1
	}
	own := m.At(t)
	if own == 0 {
		own = 1 // thread clocks always carry their own component
	}
	c.root = c.newNode(int32(t), own, c.vcnt, Unattributed)
	for i, v := range m {
		if v == 0 || i == t {
			continue
		}
		n := c.newNode(int32(i), v, 0, Unattributed)
		c.attach(c.root, n, c.vcnt)
	}
	c.exact = true
	c.mut = verFloor
	c.mirrorVer = c.mut - 1 // mirror stale: rebuild on first flat-interop use
}

// AbsorbIntoFlat joins c's components into the flat clock dst (dst ⊔= c):
// the hybrid engine's flat auxiliary accumulators absorbing a tree thread
// clock. It returns the possibly grown dst, the number of components that
// went from zero to nonzero (so the caller can maintain a nonzero count
// incrementally), and whether any component changed at all.
func (c *Clock) AbsorbIntoFlat(dst vc.Clock) (vc.Clock, int, bool) {
	if c.maxTid < 0 {
		return dst, 0, false
	}
	grew, changed := 0, false
	if len(c.nodes)*4 < int(c.maxTid)+1 {
		// Sparse tree: scatter the few stored entries instead of scanning
		// a width-proportional flat view.
		dst = dst.Grow(int(c.maxTid) + 1)
		for i := range c.nodes {
			n := &c.nodes[i]
			if n.clk > dst[n.tid] {
				if dst[n.tid] == 0 {
					grew++
				}
				dst[n.tid] = n.clk
				changed = true
			}
		}
		return dst, grew, changed
	}
	m := c.flatView()
	dst = dst.Grow(len(m))
	for i, v := range m {
		if v > dst[i] {
			if dst[i] == 0 {
				grew++
			}
			dst[i] = v
			changed = true
		}
	}
	return dst, grew, changed
}

// DominatesFlat reports whether o ⊑ c for a flat vector o: one tight
// two-slice comparison over the flat view.
func (c *Clock) DominatesFlat(o vc.Clock) bool {
	return o.Leq(c.flatView())
}

// Flat returns the represented vector as a fresh flat clock.
func (c *Clock) Flat() vc.Clock {
	var out vc.Clock
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.clk != 0 {
			out = out.Set(int(n.tid), n.clk)
		}
	}
	return out
}

// String renders the represented vector in the paper's ⟨…⟩ notation.
func (c *Clock) String() string {
	return c.Flat().String()
}

// debugTree renders the tree structure (tests and debugging).
func (c *Clock) debugTree() string {
	var sb strings.Builder
	var rec func(v int32, depth int)
	rec = func(v int32, depth int) {
		n := &c.nodes[v]
		aclk := "∞"
		if n.aclk != Unattributed {
			aclk = fmt.Sprintf("%d", n.aclk)
		}
		fmt.Fprintf(&sb, "%s(t%d clk=%d ver=%d aclk=%s)\n",
			strings.Repeat("  ", depth), n.tid, n.clk, n.ver, aclk)
		for ch := n.head; ch != nilNode; ch = c.nodes[ch].next {
			rec(ch, depth+1)
		}
	}
	if c.root != nilNode {
		rec(c.root, 0)
	}
	return sb.String()
}
