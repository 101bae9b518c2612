package core

import (
	"aerodrome/internal/treeclock"
	"aerodrome/internal/vc"
)

// hybridClock is the third clock representation: tree clocks for the
// per-thread clocks ℂ_t — where the publish-absorb discipline
// makes subtree-skipping pay — but flat vc.Clocks for the auxiliary
// accumulators (𝕎_x, ℝ_x, lock clocks), whose end-event flushes and
// zeroing-adjacent update patterns fall outside the tree transfer
// discipline and degenerate tree joins to copies on densely entangled
// (chain-shaped) workloads.
//
// Exactly one of tree/flat is non-nil, fixed at construction: the engine's
// newClock makes tree-backed thread clocks and newAux makes flat-backed
// auxiliaries. Same-side operations dispatch to the native implementation;
// the three cross-representation operations the engine actually performs
// go through internal/treeclock's narrow flat-interop API:
//
//	thread ⊔= aux    (checkAndGet, write R_x absorb)   → JoinFlat
//	aux ⊔= thread    (flushes, end-event propagation)  → AbsorbIntoFlat
//	aux := thread    (release, unary write)            → AbsorbIntoFlat
//
// The engine has no tree ← flat assignment: CopyFrom panics on one rather
// than silently approximating it.
type hybridClock struct {
	tree *treeclock.Clock
	flat flatClock

	// Copy-on-write aliasing for the flat side: when aliasSrc is non-nil,
	// flat.c is an immutable SharedFlatView snapshot of aliasSrc taken at
	// mutation version aliasVer and must not be written until materialized.
	// Because thread clocks grow monotonically, re-absorbing the SAME
	// source is a pure alias refresh (the old snapshot is a lower bound of
	// the new one), so the hot flush patterns — release copying the
	// releasing thread's clock, end events re-joining the ending clock into
	// the accumulators it already dominates — are O(1) instead of O(width).
	aliasSrc *treeclock.Clock
	aliasVer uint64

	// owner is the owning thread for thread clocks, -1 for auxiliary
	// accumulators (only thread clocks take part in demotion/promotion).
	owner int32
	// pol, when non-nil, is the Auto engine's shared width observer: flat
	// thread clocks stay flat while the observed thread width is at or
	// below the policy threshold and promote to trees once it crosses.
	pol *autoPolicy
	// stats, when non-nil, is the owning engine's shared representation-
	// transition accounting (kept separate from pol: plain hybrid thread
	// clocks have no policy but still demote and re-promote).
	stats *repStats
	// quiet counts consecutive flat-side joins that changed nothing; it is
	// the hysteresis signal that a demoted thread clock's churn phase has
	// passed and the tree representation would win again.
	quiet uint16
	// demotions counts how many times this clock demoted tree→flat. Each
	// demotion doubles the quiet streak required before the next
	// re-promotion, so phase-flapping workloads settle on flat instead of
	// thrashing between representations.
	demotions uint8
}

// autoPolicy is the shared observed-thread-width state behind the Auto
// engine: the engine's thread-clock constructor bumps width once per
// thread that actually appears, and every flat thread clock consults it
// at transaction begins to decide whether tree clocks have started to pay.
type autoPolicy struct {
	width     int
	threshold int
}

// demoteToFlat converts the tree side into a private flat clock. The
// abandoned tree is left intact: snapshots of it held by auxiliary aliases
// stay valid (it will never mutate again), and the flat side starts from a
// private copy with the mutation counter strictly above the tree's, so any
// engine epoch slot recorded against the tree conservatively misses.
func (h *hybridClock) demoteToFlat() {
	m, nz := h.tree.SharedFlatView()
	h.flat = flatClock{
		c:   append(vc.Clock(nil), m...),
		nz:  nz,
		mut: h.tree.Ver() + 1,
	}
	h.tree = nil
	h.quiet = 0
	if h.demotions < ^uint8(0) {
		h.demotions++
	}
	if h.stats != nil {
		h.stats.demotions++
	}
}

// promoteToTree converts the flat side back into a tree clock (star
// layout, unattributable leaves; see treeclock.PromoteFromFlat). The new
// tree's mutation counter is seated strictly above the flat side's, so
// epoch slots recorded against the flat representation conservatively
// miss, mirroring demoteToFlat in the opposite direction.
func (h *hybridClock) promoteToTree() {
	tree := treeclock.New()
	tree.PromoteFromFlat(int(h.owner), h.flat.c, h.flat.mut+1)
	h.tree = tree
	h.flat = flatClock{}
	h.aliasSrc = nil
	h.quiet = 0
}

// repromoteQuietNeed is the consecutive-quiet-join streak a demoted thread
// clock must see before re-promoting: 16 after the first demotion, doubling
// with each further demotion (hysteresis against representation thrash).
func repromoteQuietNeed(demotions uint8) uint16 {
	if demotions == 0 {
		return 0
	}
	if demotions > 7 {
		demotions = 7
	}
	return 16 << (demotions - 1)
}

// maybePromote decides, at a transaction begin, whether a flat thread
// clock should (re-)promote to the tree representation:
//
//   - Auto engines keep thread clocks flat while the observed width is at
//     or below the policy threshold (flat wins at small widths);
//   - a clock that started flat under Auto (never demoted) promotes as
//     soon as the width crosses the threshold;
//   - a demoted clock additionally needs its quiet streak (joins that
//     stopped changing anything — the churn phase has passed).
func (h *hybridClock) maybePromote() {
	if h.pol != nil && h.pol.width <= h.pol.threshold {
		return
	}
	if h.demotions == 0 && h.pol == nil {
		return // plain hybrid thread clocks start as trees; nothing to do
	}
	if h.quiet < repromoteQuietNeed(h.demotions) {
		return
	}
	if h.stats != nil {
		if h.demotions == 0 {
			h.stats.widthPromotions++ // Auto width cutover, never demoted
		} else {
			h.stats.repromotions++
		}
	}
	h.promoteToTree()
}

func newHybridThreadClock() *hybridClock { return &hybridClock{tree: treeclock.New(), owner: -1} }
func newHybridAuxClock() *hybridClock    { return &hybridClock{owner: -1} }

// materializeFlat gives the flat side its own private copy of an aliased
// snapshot; every flat-side mutation that is not a whole-clock (re)alias
// calls it first.
func (h *hybridClock) materializeFlat() {
	if h.aliasSrc == nil {
		return
	}
	h.flat.c = append(vc.Clock(nil), h.flat.c...)
	h.aliasSrc = nil
}

// aliasTree points the flat side at src's shared snapshot (assignment
// semantics). The previous content, aliased or owned, is released.
func (h *hybridClock) aliasTree(src *treeclock.Clock) {
	h.flat.c, h.flat.nz = src.SharedFlatView()
	h.aliasSrc = src
	h.aliasVer = src.Ver()
	h.flat.mut++
}

func (h *hybridClock) InitUnit(t int) {
	h.owner = int32(t)
	if h.tree != nil {
		h.tree.InitUnit(t)
		return
	}
	h.flat.c = nil // drop a potential alias; InitUnit reallocates
	h.aliasSrc = nil
	h.flat.InitUnit(t)
}

func (h *hybridClock) At(t int) vc.Time {
	if h.tree != nil {
		return h.tree.At(t)
	}
	return h.flat.At(t)
}

func (h *hybridClock) Inc(t int) {
	if h.tree == nil && h.owner >= 0 {
		// Transaction begins are the representation decision point: cheap,
		// regular, and never on an alias-handout path.
		h.maybePromote()
	}
	if h.tree != nil {
		h.tree.Inc(t)
		return
	}
	h.materializeFlat()
	h.flat.Inc(t)
}

func (h *hybridClock) Join(o *hybridClock) {
	if h.tree == nil && h.owner >= 0 {
		// Flat thread clock: feed the hysteresis signal. A join that leaves
		// the flat side untouched (no mutation-counter movement) extends
		// the quiet streak; any content change resets it.
		before := h.flat.mut
		h.joinFlatTarget(o)
		if h.flat.mut == before {
			h.NoteSkippedJoin()
		} else {
			h.quiet = 0
		}
		return
	}
	if h.tree != nil {
		if o.tree != nil {
			h.tree.Join(o.tree)
		} else if o.aliasSrc == h.tree {
			// o is a snapshot of this very clock at an earlier version;
			// monotone growth makes the join a no-op (the R_x-absorb path
			// on thread-private variables).
		} else if h.tree.JoinFlat(o.flat.c) {
			// One heavily churning absorb (the join raced past most of the
			// tree) is the chain-workload signature: the tree structure
			// gains nothing there, so demote to flat. Tree becomes nil and
			// every operation dispatches to the flat side, as for
			// auxiliaries; thread-sharded workloads never churn and keep
			// their trees. Demotion holds until the hysteresis quiet streak
			// says the churn phase has passed (maybePromote).
			h.demoteToFlat()
		}
		return
	}
	h.joinFlatTarget(o)
}

// joinFlatTarget is Join for a flat-side target (auxiliary accumulators
// and demoted or Auto-flat thread clocks).
func (h *hybridClock) joinFlatTarget(o *hybridClock) {
	if o.tree != nil {
		if h.aliasSrc == o.tree {
			// Same monotone source: the join result is the source's current
			// content — refresh the alias (no-op when it didn't mutate).
			if h.aliasVer != o.tree.Ver() {
				h.aliasTree(o.tree)
			}
			return
		}
		if h.flat.nz == 0 {
			// ⊥ target: the join result is exactly the source.
			h.aliasTree(o.tree)
			return
		}
		if o.tree.DominatesFlat(h.flat.c) {
			// Dominated target: the join result is exactly the source, so
			// re-alias instead of materializing and merging. This is the
			// common shape of end-event flushes — the ending transaction
			// absorbed R_x at its write event, so its final clock dominates
			// the accumulator it flushes into.
			h.aliasTree(o.tree)
			return
		}
		h.materializeFlat()
		var grew int
		var changed bool
		h.flat.c, grew, changed = o.tree.AbsorbIntoFlat(h.flat.c)
		h.flat.nz += grew
		if changed {
			h.flat.mut++
		}
		return
	}
	h.materializeFlat()
	h.flat.Join(&o.flat)
}

func (h *hybridClock) JoinZeroingInto(dst *vc.Sparse, skip int) {
	if h.tree != nil {
		h.tree.JoinZeroingInto(dst, skip)
		return
	}
	h.flat.JoinZeroingInto(dst, skip)
}

func (h *hybridClock) CopyFrom(o *hybridClock) {
	if h.tree != nil {
		if o.tree == nil {
			panic("core: hybridClock tree ← flat assignment has no engine call site")
		}
		h.tree.CopyFrom(o.tree)
		return
	}
	if o.tree != nil {
		if h.aliasSrc == o.tree && h.aliasVer == o.tree.Ver() {
			return // already this exact content
		}
		h.aliasTree(o.tree)
		return
	}
	if h.aliasSrc != nil {
		h.flat.c = nil // drop the alias; CopyFrom reuses dst storage
		h.aliasSrc = nil
	}
	h.flat.CopyFrom(&o.flat)
}

// NoteSkippedJoin counts a skipped no-op join into a flat thread clock as
// a quiet join, so the engine's shortcuts do not starve the re-promotion
// streak of the joins they make unnecessary.
func (h *hybridClock) NoteSkippedJoin() {
	if h.tree == nil && h.owner >= 0 && h.quiet < ^uint16(0) {
		h.quiet++
	}
}

func (h *hybridClock) Ver() uint64 {
	if h.tree != nil {
		return h.tree.Ver()
	}
	return h.flat.Ver()
}

func (h *hybridClock) HasEntryOtherThan(t int) bool {
	if h.tree != nil {
		return h.tree.HasEntryOtherThan(t)
	}
	return h.flat.HasEntryOtherThan(t)
}

func (h *hybridClock) Flat() vc.Clock {
	if h.tree != nil {
		return h.tree.Flat()
	}
	return h.flat.Flat()
}
