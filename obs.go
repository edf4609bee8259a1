package apclassifier

import "apclassifier/internal/obs"

// RegisterMetrics registers this classifier's derived metrics — values
// computed at scrape time from the published snapshot and the striped
// visit counters, costing the query path nothing — into reg (typically
// obs.Default). A process hosting several classifiers calls this on the
// one /metrics should describe; re-registration rebinds, newest wins.
func (c *Classifier) RegisterMetrics(reg *obs.Registry) {
	m := c.Manager
	reg.CounterFunc("apc_aptree_classify_total",
		"Stage-1 classifications served, derived at scrape time from the striped visit counters (no query-path work; see DESIGN §7 for the retired-epoch undercount caveat).",
		m.TotalClassifications)
	reg.GaugeFunc("apc_aptree_atoms",
		"Atomic predicates (leaves) in the published AP Tree.",
		func() float64 { return float64(m.Snapshot().Tree().NumLeaves()) })
	reg.GaugeFunc("apc_aptree_predicates_live",
		"Live predicates in the published epoch.",
		func() float64 { return float64(m.NumLive()) })
	reg.GaugeFunc("apc_aptree_avg_depth",
		"Mean leaf depth of the published AP Tree.",
		func() float64 { return m.Snapshot().Tree().AverageDepth() })
	reg.GaugeFunc("apc_aptree_max_depth",
		"Maximum leaf depth of the published AP Tree.",
		func() float64 { return float64(m.Snapshot().Tree().MaxDepth()) })
	reg.GaugeFunc("apc_aptree_version",
		"Published reconstruction epoch.",
		func() float64 { return float64(m.Version()) })
	reg.GaugeFunc("apc_aptree_updates_since_swap",
		"Tree updates applied since the last reconstruction swap.",
		func() float64 { return float64(m.UpdatesSinceSwap()) })
	reg.GaugeFunc("apc_bdd_live_nodes",
		"Live BDD nodes in the published epoch's frozen view.",
		func() float64 { return float64(m.Snapshot().View().LiveNodes()) })
	reg.GaugeFunc("apc_bdd_live_mem_bytes",
		"Estimated bytes of live BDD state in the published epoch.",
		func() float64 { return float64(m.Snapshot().View().LiveMemBytes()) })
}
