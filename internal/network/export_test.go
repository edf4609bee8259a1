package network

import "apclassifier/internal/aptree"

// UncachedBehavior walks like Network.Behavior, but against a private,
// empty memo: every Type-1 rewrite is classified afresh, and nothing the
// epoch's own memo holds is read or written.
func UncachedBehavior(n *Network, s *aptree.Snapshot, ingress int, pkt []byte, leaf *aptree.Node) *Behavior {
	b := &Behavior{Ingress: ingress}
	var visited []visitKey
	var queue []workItem
	n.behaviorInto(s, newMemo(s).(*Memo), ingress, pkt, leaf, b, &visited, &queue)
	return b
}
