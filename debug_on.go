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
// each box's InACL, each port's Fwd and OutACL — is live in the published
// epoch, and PortPred agrees with Net. Walks probe no liveness: a removed
// ID must be unwired (NoPred or its successor) in the same Manager.Update,
// and a dangling one would silently read "matches nothing" (a forwarding
// port goes dark, an ACL denies everything). It runs once per
// ApplyRuleDeltas and per restore, never per query.
func (c *Classifier) debugCheckWiring() {
	live := make(map[int32]bool)
	for _, id := range c.Manager.LiveIDs() {
		live[id] = true
	}
	check := func(what string, box, port int, id int32) {
		if id != network.NoPred && !live[id] {
			panic(fmt.Sprintf("apdebug: box %d port %d: %s wired to dead predicate %d", box, port, what, id))
		}
	}
	for bi, box := range c.Net.Boxes {
		check("ingress ACL", bi, -1, box.InACL)
		for pi := range box.Ports {
			check("forwarding", bi, pi, box.Ports[pi].Fwd)
			check("egress ACL", bi, pi, box.Ports[pi].OutACL)
			if c.PortPred[bi][pi] != box.Ports[pi].Fwd {
				panic(fmt.Sprintf("apdebug: box %d port %d: PortPred says %d, Net forwards on %d",
					bi, pi, c.PortPred[bi][pi], box.Ports[pi].Fwd))
			}
		}
	}
}
