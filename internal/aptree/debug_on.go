//go:build apdebug

package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
)

// Debug reports whether the apdebug runtime sanitizers are compiled in.
const Debug = true

// debugCheckPartition panics if the tree's leaves stop being a partition
// of the header space. It runs after Build and after every AddPredicate
// splice, so the mutation that broke the partition is the one on the
// stack. Only compiled under -tags apdebug.
func (t *Tree) debugCheckPartition() {
	if err := t.CheckLeafPartition(); err != nil {
		panic("aptree: apdebug partition violation: " + err.Error())
	}
}

// debugCheckFlat panics if the snapshot is about to serve a flat classify
// core compiled for a different epoch — a different tree root or a
// different frozen view than the snapshot's own. Publish compiles the
// flat form and the snapshot in one critical section, so a mismatch means
// a stale-compile bug at the swap. Only compiled under -tags apdebug.
func (s *Snapshot) debugCheckFlat() {
	if s.flat.src != s.tree.root || s.flat.view != s.view {
		panic("aptree: apdebug flat/epoch mismatch: flat core compiled for a retired epoch")
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
