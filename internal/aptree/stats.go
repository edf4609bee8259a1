package aptree

import (
	"sync/atomic"

	"apclassifier/internal/obs"
)

// Process-wide aptree counters. Everything here records on the update
// and rebuild paths, which already hold the manager's write lock — the
// lock-free Classify path records nothing (its totals are derived at
// scrape time from the striped visit counters, see
// Manager.TotalClassifications).
var (
	mUpdates = obs.Default.Counter("apc_aptree_updates_total",
		"Predicate update transactions applied to the live AP Tree.")
	mUpdateDur = obs.Default.Histogram("apc_aptree_update_duration_seconds",
		"Wall time of one update transaction (build + splice + republish).", obs.DefBuckets)
	mRebuildDur = obs.Default.Histogram("apc_aptree_rebuild_duration_seconds",
		"Wall time of one full reconstruction (§VI-B), journal replay and swap included.", obs.DefBuckets)
	mSwaps = obs.Default.Counter("apc_aptree_snapshot_swaps_total",
		"Reconstruction swaps: times a freshly rebuilt tree replaced the live one.")
	mPublishes = obs.Default.Counter("apc_aptree_snapshot_publishes_total",
		"Snapshot publications (every update or swap republishes the epoch pointer).")

	// Delta-engine counters: structural work done by incremental predicate
	// transactions (splits and merges of ReplacePredicate). Recorded once per
	// Update under the write lock, from the transaction's DeltaStats.
	mDeltaTouched = obs.Default.Counter("apc_delta_touched_leaves_total",
		"Leaves copied or created by delta transactions (the copy-on-write footprint).")
	mDeltaSplits = obs.Default.Counter("apc_delta_splits_total",
		"Atom splits performed by delta transactions (a leaf straddling an added or replaced predicate).")
	mDeltaMerges = obs.Default.Counter("apc_delta_merges_total",
		"Atom merges performed by delta transactions (a removed or replaced predicate no longer separating two leaves).")
	mDeltaApplyDur = obs.Default.Histogram("apc_delta_apply_duration_seconds",
		"Wall time of one delta transaction (structural splice + republish).", obs.DefBuckets)
)

// total sums every counter across all chunks and stripes: the number of
// counted classifications served by this tree lineage. The manager folds
// it into the retired-visits accumulator at swap time so the derived
// apc_aptree_classify_total metric never touches the query path.
func (c *visitCounters) total() uint64 {
	var n uint64
	for _, ch := range c.chunks {
		s := *ch
		for i := range s {
			n += atomic.LoadUint64(&s[i])
		}
	}
	return n
}

// TotalClassifications reports how many stage-1 classifications this
// manager has served (while visit counting was enabled, the default):
// visits banked from retired tree lineages plus the live lineage's
// striped counters. The count is derived entirely at read time — the
// query path does no metrics work — so it is the scrape-time source for
// the apc_aptree_classify_total counter. See the retiredVisits field
// for the undercount caveat on epochs retired mid-query.
func (m *Manager) TotalClassifications() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.retiredVisits + m.tree.visits.total()
}
