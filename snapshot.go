package apclassifier

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
	"apclassifier/internal/network"
)

// Snapshot is one immutable epoch of the classifier, pinned at the
// moment Classifier.Snapshot was called. Every query method answers
// against that epoch — the same AP Tree, BDD view, predicate liveness
// and port/ACL wiring — no matter how many rule-delta batches or
// reconstructions the live classifier absorbs afterwards, and none of
// them takes a lock.
//
// Use a Snapshot when a batch of queries must be mutually consistent
// (an invariant sweep, a /stats report), or simply to amortize the one
// atomic load per query that Classifier.Behavior performs. Snapshots are safe for concurrent use by any number of
// goroutines and may be retained indefinitely; an old epoch's memory is
// reclaimed by Go's GC once the last snapshot referencing it is
// dropped.
//
// The wiring is published with the tree, so a batch that makes a port
// start or stop forwarding, or sets an ACL, shows in a snapshot whole or
// not at all; the rest of the topology never changes after setup.
type Snapshot struct {
	c *Classifier
	s *aptree.Snapshot
}

// Snapshot pins the current epoch.
func (c *Classifier) Snapshot() *Snapshot {
	return &Snapshot{c: c, s: c.Manager.Snapshot()}
}

// Version reports the reconstruction epoch this snapshot is pinned to.
func (s *Snapshot) Version() uint64 { return s.s.Version() }

// Classify runs stage 1 against the pinned epoch.
func (s *Snapshot) Classify(pkt header.Packet) *aptree.Node {
	leaf, _ := s.s.Classify(pkt)
	return leaf
}

// BehaviorFrom runs stage 2 only, from a leaf the caller already
// obtained via Classify on this same snapshot. Callers that need both
// the leaf and the behavior (the server's /query, traced queries) use it
// to avoid classifying the packet twice.
func (s *Snapshot) BehaviorFrom(ingress int, pkt header.Packet, leaf *aptree.Node) *network.Behavior {
	return s.c.behaviorVia(s.c.cacheFor(s.s), nil, s.s, ingress, pkt, leaf, false)
}

// NumPredicates reports the number of live predicates in the epoch.
func (s *Snapshot) NumPredicates() int { return s.s.NumLive() }

// NumAtoms reports the number of leaves of the epoch's tree.
func (s *Snapshot) NumAtoms() int { return s.s.Tree().NumLeaves() }

// AverageDepth reports the epoch tree's mean leaf depth.
func (s *Snapshot) AverageDepth() float64 { return s.s.Tree().AverageDepth() }

// LiveMemBytes reports the live BDD bytes of the epoch's frozen view.
func (s *Snapshot) LiveMemBytes() int { return s.s.View().LiveMemBytes() }
