package network

import "apclassifier/internal/obs"

// Stage-2 traversal counters. behaviorInto accumulates locally and
// flushes once per walk (plus one striped add per terminal event), so a
// traversal of h hops costs a handful of atomic adds total — not one per
// hop — and the walk loop itself stays allocation- and atomic-free.
var (
	mWalks = obs.Default.Counter("apc_network_walks_total",
		"Stage-2 behavior traversals computed.")
	mHops = obs.Default.Counter("apc_network_hops_total",
		"Boxes processed across all stage-2 traversals (multicast branches included).")
	mDeliveries = obs.Default.Counter("apc_network_deliveries_total",
		"Traversal branches that reached an end host.")
	mRewrites = obs.Default.Counter("apc_network_rewrites_total",
		"Middlebox header rewrites applied during traversals.")
	mDropVec = obs.Default.CounterVec("apc_network_drops_total",
		"Traversal branches that ended in a drop, by reason.", "reason")

	// Behavior-cache counters: one striped add per Memo.Lookup. A miss is
	// counted every time a walk could not be answered from the epoch's
	// memo — including walks that stay uncacheable because they cross a
	// non-deterministic middlebox — so hits/(hits+misses) is the true
	// memoization rate. A header repeated within a batch is a hit.
	mCacheHits = obs.Default.Counter("apc_behavior_cache_hits_total",
		"Stage-2 walks answered from the per-epoch behavior cache.")
	mCacheMisses = obs.Default.Counter("apc_behavior_cache_misses_total",
		"Behavior-cache lookups that required a full stage-2 walk.")

	// dropCounters resolves each known reason's child once at init, so
	// the per-walk flush never takes the CounterVec mutex.
	dropCounters = map[DropReason]*obs.Counter{
		DropNoRoute:   mDropVec.With(string(DropNoRoute)),
		DropInACL:     mDropVec.With(string(DropInACL)),
		DropOutACL:    mDropVec.With(string(DropOutACL)),
		DropDangling:  mDropVec.With(string(DropDangling)),
		DropLoop:      mDropVec.With(string(DropLoop)),
		DropHopBudget: mDropVec.With(string(DropHopBudget)),
		DropMiddlebox: mDropVec.With(string(DropMiddlebox)),
	}

	// dropOther absorbs reasons not known at init. Labeling the child
	// with the raw reason would mint one counter per distinct string —
	// unbounded cardinality if a reason ever carries dynamic content —
	// so the catch-all keeps the label set fixed (and the flush
	// mutex-free even on this path).
	dropOther = mDropVec.With("other")
)

// countDrop bumps the per-reason drop counter; reasons not known at init
// share the "other" child.
func countDrop(r DropReason) {
	if c, ok := dropCounters[r]; ok {
		c.Inc()
		return
	}
	dropOther.Inc()
}
