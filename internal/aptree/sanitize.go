package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
)

// CheckLeafPartition verifies the defining property of an AP Tree: the
// leaf atoms are non-empty, pairwise disjoint, and together cover the full
// header space, so every packet classifies to exactly one leaf. It is the
// partition half of Validate without the O(n²) membership cross-check,
// cheap enough to run after every structural mutation under -tags apdebug.
//
// The check allocates scratch BDD nodes in t.D (the running union), so it
// must be serialized with other DD mutations exactly like an update.
//
//lint:ignore unreached apdebug: debug_on.go runs it at every publish; the root churn suite and apdebug tests call it directly
func (t *Tree) CheckLeafPartition() error {
	d := t.D
	union := bdd.False
	var err error
	i := 0
	t.Leaves(func(n *Node) {
		if err != nil {
			return
		}
		switch {
		case n.BDD == bdd.False:
			err = fmt.Errorf("aptree: leaf %d (atom %d) has an empty predicate", i, n.AtomID)
		case !d.Disjoint(union, n.BDD):
			err = fmt.Errorf("aptree: leaf %d (atom %d) overlaps an earlier leaf", i, n.AtomID)
		default:
			union = d.Or(union, n.BDD)
		}
		i++
	})
	if err != nil {
		return err
	}
	if union != bdd.True {
		return fmt.Errorf("aptree: %d leaves do not cover the header space", i)
	}
	return nil
}
