// Package clean holds mutation patterns frozenwrite must accept: Clone
// is the sanctioned escape hatch, freshly constructed values are the
// caller's to mutate, copying an element out of a frozen slice breaks
// the alias, and reads of any depth are always fine.
package clean

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

func cloneThenMutate(b *network.Behavior) *network.Behavior {
	c := b.Clone()
	c.Rewrites++
	c.Edges = append(c.Edges, network.Edge{})
	return c
}

func copyElementWrite(b *network.Behavior) int {
	if len(b.Edges) == 0 {
		return 0
	}
	e := b.Edges[0] // value copy: mutating it cannot reach the cache
	e.Box = 99
	return e.Box
}

func freshConstruction(ingress int) *network.Behavior {
	nb := &network.Behavior{}
	nb.Ingress = ingress
	return nb
}

func readOnly(s *aptree.Snapshot) (int, bool) {
	return s.Tree().NumLeaves(), s.Tree().Root().Member.Get(0)
}

// The delta engine's copy-on-write discipline: the replacement node is
// built fresh, so writing it cannot reach the published snapshot.
func copyOnWriteLeaf(s *aptree.Snapshot, pkt []byte) *aptree.Node {
	leaf, _ := s.Classify(pkt)
	nn := &aptree.Node{}
	nn.AtomID = leaf.AtomID + 1
	return nn
}

// The probing idiom: the uncounted search hands out the snapshot's own
// frozen leaves — reads of any depth are fine, and a membership vector
// cloned out of one is the caller's to mutate.
func uncountedReadOnly(s *aptree.Snapshot, pkt []byte) (int32, bool) {
	leaf := s.ClassifyUncounted(pkt)
	member := leaf.Member.Clone(8)
	member.Set(0, true) // a clone: mutating it cannot reach the snapshot
	return leaf.AtomID, member.Get(0)
}

// The snapshot-native analyzer idiom: atoms retained through an AtomView
// are read every which way but never written.
func atomViewReadOnly(s *aptree.Snapshot) (int, bool) {
	v := s.Atoms()
	first := int32(-1)
	v.Each(func(id int32) bool { first = id; return false })
	return v.N(), v.Leaf(first).Member.Get(0)
}
