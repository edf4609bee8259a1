// Package bad seeds frozenwrite violations: field writes on a cached
// behavior (directly, through an alias, and via increment), a write
// through a chain of pointer-shaped projections derived from a snapshot,
// and a mutating-method call on state reachable from a snapshot.
package bad

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

func mutateCached(b *network.Behavior) {
	b.Edges = nil // field write on a frozen value
	b.Rewrites++  // increment is a write too
}

func mutateAlias(b *network.Behavior) {
	alias := b
	alias.Ingress = 0 // the alias still points at the frozen value
}

func mutateDerived(s *aptree.Snapshot) {
	s.Tree().Root().AtomID = 7 // derived pointer chain reaches the snapshot
}

func mutateViaMethod(s *aptree.Snapshot) {
	s.Tree().Root().Member.Set(0, true) // Set* on snapshot-reachable state
}

func renumberLeafInPlace(s *aptree.Snapshot, pkt []byte) {
	leaf, _ := s.Classify(pkt)
	leaf.AtomID = 9 // delta renumbering is copy-on-write, never in place
}

func deltaOnPublishedTree(s *aptree.Snapshot) {
	s.Tree().ReplacePredicate(3, 0, 0) // deltas go through Manager.Update, not the published tree
}

func renumberViaUncounted(s *aptree.Snapshot, pkt []byte) {
	s.ClassifyUncounted(pkt).AtomID = 3 // the uncounted search serves the same frozen leaves
}

func retainNodeAcrossEpochs(m *aptree.Manager, pkt []byte) {
	leaf, _ := m.Snapshot().Classify(pkt)
	m.Update(func(tx *aptree.Tx) {})
	leaf.AtomID = 5 // retained across a delta publish; nodes belong to their epoch forever
}

func mutateAtomViewLeaf(s *aptree.Snapshot) {
	s.Atoms().Leaf(0).AtomID = 1 // AtomView hands out the snapshot's own nodes
}
