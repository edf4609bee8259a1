package apclassifier

import (
	"time"

	"apclassifier/internal/header"
	"apclassifier/internal/network"
	"apclassifier/internal/obs"
)

// SetTraceSink installs (or, with nil, removes) a trace ring that
// Behavior and BehaviorWith record per-query stage timings into. The
// hook contract keeps the query path lock-free: when no sink is set a
// query pays exactly one atomic pointer load; when one is set, recording
// happens after the answer is computed, under the ring's own mutex,
// never touching classifier state. Traces from concurrent queries
// interleave in arrival order.
func (c *Classifier) SetTraceSink(r *obs.TraceRing) { c.sink.Store(r) }

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

// traceQuery runs one pinned two-stage query with stage timing and
// records it into ring. Factored out of Behavior/BehaviorWith so both
// share one definition of the stage boundaries.
func (c *Classifier) traceQuery(ring *obs.TraceRing, w *network.Walker, ingress int, pkt header.Packet) *network.Behavior {
	t0 := time.Now()
	s := c.Manager.Snapshot()
	t1 := time.Now()
	leaf, version := s.Classify(pkt)
	t2 := time.Now()
	b := c.behaviorVia(c.cacheFor(s), w, s, ingress, pkt, leaf, false)
	t3 := time.Now()
	ring.Record(obs.QueryTrace{
		Start:    t0,
		Ingress:  ingress,
		Atom:     int(leaf.AtomID),
		Depth:    int(leaf.Depth),
		Visits:   int(leaf.Depth) + 1, // nodes touched by the descent, leaf included
		Version:  version,
		PinNs:    t1.Sub(t0).Nanoseconds(),
		ClassNs:  t2.Sub(t1).Nanoseconds(),
		WalkNs:   t3.Sub(t2).Nanoseconds(),
		Hops:     len(b.Edges),
		Delivers: len(b.Deliveries),
		Drops:    len(b.Drops),
		Rewrites: b.Rewrites,
	})
	return b
}
