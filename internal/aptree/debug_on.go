//go:build apdebug

package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
)

// Debug reports whether the apdebug runtime sanitizers are compiled in.
const Debug = true

// debugCheckPartition panics if the tree's leaves stop being a partition
// of the header space. It runs after Build and after every ReplacePredicate,
// so the mutation that broke the partition is the one on the stack. Only
// compiled under -tags apdebug.
func (t *Tree) debugCheckPartition() {
	if err := t.CheckLeafPartition(); err != nil {
		panic("aptree: apdebug partition violation: " + err.Error())
	}
}

// debugCheckMember panics unless every leaf's membership bit for id agrees
// with predicate id: set iff the leaf lies inside it, and clear only on a
// leaf disjoint from it. ReplacePredicate trusts its caller's region to
// hold old ⊕ new and re-tests only the leaves that meet it, so a region
// that misses part of the change leaves stale bits outside it; this is the
// check that sees them. On a partition (debugCheckPartition runs first)
// the per-leaf condition is equivalent to one equation — the leaves with
// the bit set make up the predicate exactly. The union follows the tree's
// shape, so the subtrees an update shared hit the BDD cache: on the
// 200-delta program of the root TestRuleDeltaWorkIsLocal the apdebug build
// counts 0.21 M apply ops with it and 9.9 M with two BDD tests per leaf.
// Only compiled under -tags apdebug.
func (t *Tree) debugCheckMember(id int32) {
	d := t.D
	var in func(n *Node) bdd.Ref
	in = func(n *Node) bdd.Ref {
		switch {
		case !n.IsLeaf():
			return d.Or(in(n.T), in(n.F))
		case n.Member.Get(int(id)):
			return n.BDD
		}
		return bdd.False
	}
	if in(t.root) != t.preds[id] {
		panic(fmt.Sprintf("aptree: apdebug membership violation: the leaves with bit %d set do not make up predicate %d", id, id))
	}
}

// debugValidateRestore runs Tree.Validate over every non-empty predicate
// slot of a restored tree, so a leaf whose membership bit contradicts its
// predicate fails the restore instead of misclassifying. Only compiled
// under -tags apdebug.
func (t *Tree) debugValidateRestore() error {
	var ids []int32
	for id, p := range t.preds {
		if p != bdd.False {
			ids = append(ids, int32(id))
		}
	}
	if err := t.Validate(ids); err != nil {
		return fmt.Errorf("aptree: restore: %w", err)
	}
	return nil
}
