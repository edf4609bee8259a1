package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// AtomView is a snapshot's atom index: every live atom of the epoch,
// addressable by AtomID, with its BDD and membership vector — plus the
// epoch's atom-ID universe as an interval-coded AtomSet. It lets
// consumers (the verification engine, behavior computation) work in
// terms of atom IDs and AtomSets instead of retaining `*Node` pointers,
// whose identity is only meaningful within one epoch.
//
// An AtomView is derived once from the snapshot's immutable tree and is
// itself immutable; it is valid exactly as long as its snapshot.
type AtomView struct {
	// leaves is indexed by AtomID; nil entries are IDs retired by
	// predicate removals earlier in the lineage.
	leaves []*Node
	ids    predicate.AtomSet
	n      int
}

func newAtomView(s *Snapshot) *AtomView {
	v := &AtomView{leaves: make([]*Node, s.tree.AtomIDBound())}
	var b predicate.AtomSetBuilder
	s.tree.Leaves(func(n *Node) {
		v.leaves[n.AtomID] = n
		v.n++
	})
	for id, n := range v.leaves {
		if n != nil {
			b.Add(int32(id))
		}
	}
	v.ids = b.Set()
	return v
}

// N reports the number of live atoms in the epoch.
func (v *AtomView) N() int { return v.n }

// BDD returns atom id's predicate (a ref into the snapshot's frozen
// view). It panics on a retired or out-of-range ID.
func (v *AtomView) BDD(id int32) bdd.Ref { return v.mustLeaf(id).BDD }

// Leaf returns atom id's leaf node. The handle is epoch-scoped: it must
// not be retained beyond the snapshot the view came from (the epochpin
// lint rejects cross-epoch leaf retention).
func (v *AtomView) Leaf(id int32) *Node { return v.mustLeaf(id) }

func (v *AtomView) mustLeaf(id int32) *Node {
	if id < 0 || int(id) >= len(v.leaves) || v.leaves[id] == nil {
		panic(fmt.Sprintf("aptree: atom %d not live in this epoch", id))
	}
	return v.leaves[id]
}

// Each calls fn for every live atom in ascending AtomID order until fn
// returns false.
func (v *AtomView) Each(fn func(id int32) bool) { v.ids.Each(fn) }

// Atoms returns the snapshot's atom view, building it on first use. The
// view is cached on the snapshot; concurrent first calls may race to
// build it, and the first published result wins (the builds are
// identical, derived from immutable state).
func (s *Snapshot) Atoms() *AtomView {
	if v := s.atomView.Load(); v != nil {
		return v
	}
	s.atomView.CompareAndSwap(nil, newAtomView(s))
	return s.atomView.Load()
}
