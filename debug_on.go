//go:build apdebug

package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// debugCheckCacheEpoch panics when a query pinned to snapshot s is about
// to consult a behavior cache built for a different epoch. Cached
// behaviors are only valid for the atoms of the epoch they were walked
// under — serving one across epochs would silently return stale paths.
// cacheFor upholds this by construction (pointer-identity keying); the
// apdebug build re-checks it at the single point of use.
func debugCheckCacheEpoch(bc *network.BehaviorCache, s *aptree.Snapshot) {
	if bc != nil && bc.Epoch() != s {
		panic(fmt.Sprintf("apdebug: behavior cache for epoch %p consulted by a query pinned to epoch %p",
			bc.Epoch(), s))
	}
}

// debugCheckWiring panics unless every predicate ID stage 2 can test —
// each box's ingress ACL, each port's forwarding predicate and egress ACL
// in the published epoch's wiring — is live in that same epoch. Walks
// probe no liveness: a removed ID must be unwired (NoPred or its
// successor) in the same Manager.Update, and a dangling one would
// silently read "matches nothing" (a forwarding port goes dark, an ACL
// denies everything). It runs once per ApplyRuleDeltas and per restore,
// never per query.
func (c *Classifier) debugCheckWiring() {
	s := c.Manager.Snapshot()
	w := network.WiringOf(s)
	check := func(what string, box, port int, id int32) {
		if id != network.NoPred && !s.IsLive(id) {
			panic(fmt.Sprintf("apdebug: box %d port %d: %s wired to dead predicate %d", box, port, what, id))
		}
	}
	for b := 0; b < w.NumBoxes(); b++ {
		check("ingress ACL", b, -1, w.InACL(b))
		for p := 0; p < w.NumPorts(b); p++ {
			check("forwarding", b, p, w.Fwd(b, p))
			check("egress ACL", b, p, w.OutACL(b, p))
		}
	}
}
