package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// This file is the warm-restart half of the package: constructors that
// rebuild a Tree, Registry and Manager from decoded checkpoint state
// (see internal/checkpoint) instead of from predicates and atoms. The
// checkpoint decoder hands over raw parts — a node structure whose BDD
// refs already live in a freshly loaded DD — and these constructors
// re-establish every invariant the normal build paths establish:
// depths, leaf counts, visit counters, leaf retentions, and the
// published epoch snapshot.

// RestoreRegistry rebuilds a predicate registry from an ID-indexed ref
// slice and liveness flags, as decoded from a checkpoint. The caller
// guarantees a dead slot (live[id] false) carries bdd.False, as removal
// leaves it; a live slot may too — an all-deny ACL registers the empty
// predicate, which no leaf implies and no node routes on.
func RestoreRegistry(refs []bdd.Ref, live []bool) (*Registry, error) {
	if len(refs) != len(live) {
		return nil, fmt.Errorf("aptree: registry restore: %d refs but %d liveness flags", len(refs), len(live))
	}
	r := &Registry{
		refs: append([]bdd.Ref(nil), refs...),
		live: predicate.NewBitset(len(live)),
	}
	for id, l := range live {
		if l {
			r.live.Set(id, true)
			r.n++
		}
	}
	return r, nil
}

// RestoreTree adopts a decoded node structure as an AP Tree over d.
// root's subtree must be fully populated: internal nodes carry Pred and
// both children, leaves carry AtomID, BDD and Member, and every BDD ref
// must already be canonical in d. Depths and the leaf count are
// recomputed (they are derivable, so the checkpoint does not store
// them); leaf atom BDDs are retained exactly as the normal build path
// retains them; visit counters start at zero — query-distribution
// history deliberately does not survive a restart, so the first
// weighted reconstruction after a restore sees only post-restore
// traffic.
//
// The structure is validated as it is walked: predicate IDs must index
// a non-false entry of preds, atom IDs must be unique and below
// nextAtom, and no internal node may be missing a child. A checkpoint
// that decodes but fails these checks is rejected here rather than
// becoming a tree that misclassifies. The apdebug build also runs
// Tree.Validate, which rejects a leaf whose membership bit contradicts
// its predicate; that check costs O(leaves × predicates) BDD
// implications, so the product build skips it.
func RestoreTree(d *bdd.DD, root *Node, preds []bdd.Ref, nextAtom int32) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("aptree: restore: nil root")
	}
	t := &Tree{
		D:           d,
		preds:       append([]bdd.Ref(nil), preds...),
		nextAtom:    nextAtom,
		CountVisits: true,
	}
	seenAtom := make(map[int32]bool)
	var walk func(n *Node, depth int32) error
	walk = func(n *Node, depth int32) error {
		n.Depth = depth
		if n.IsLeaf() {
			if n.AtomID < 0 || n.AtomID >= nextAtom {
				return fmt.Errorf("aptree: restore: leaf atom ID %d outside [0,%d)", n.AtomID, nextAtom)
			}
			if seenAtom[n.AtomID] {
				return fmt.Errorf("aptree: restore: duplicate leaf atom ID %d", n.AtomID)
			}
			seenAtom[n.AtomID] = true
			if n.BDD == bdd.False {
				return fmt.Errorf("aptree: restore: leaf atom %d has false BDD", n.AtomID)
			}
			d.Retain(n.BDD)
			t.numLeaves++
			return nil
		}
		if int(n.Pred) >= len(t.preds) {
			return fmt.Errorf("aptree: restore: node predicate ID %d outside [0,%d)", n.Pred, len(t.preds))
		}
		if t.preds[n.Pred] == bdd.False {
			return fmt.Errorf("aptree: restore: node routes on absent predicate %d", n.Pred)
		}
		if n.T == nil || n.F == nil {
			return fmt.Errorf("aptree: restore: internal node (predicate %d) missing a child", n.Pred)
		}
		if err := walk(n.T, depth+1); err != nil {
			return err
		}
		return walk(n.F, depth+1)
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	t.root = root
	t.visits = newVisitCounters(int(t.nextAtom))
	if err := t.debugValidateRestore(); err != nil {
		return nil, err
	}
	return t, nil
}

// NextAtom reports the tree's atom-ID allocation bound: every leaf's
// AtomID is below it, and it is what RestoreTree must be handed back so
// IDs allocated by post-restore splits never collide with restored ones.
func (t *Tree) NextAtom() int32 { return t.nextAtom }

// NewRestoredManager is NewManagerWith for the warm-restart path: it
// additionally seeds the reconstruction epoch, so version numbers keep
// increasing across a restart instead of resetting — consumers caching
// per-version data (middlebox flow tables, monitoring) never see the
// clock run backwards. The same DD/registry/tree contract as
// NewManagerWith applies, data included.
func NewRestoredManager(d *bdd.DD, reg *Registry, tree *Tree, method Method, version uint64, data any) *Manager {
	m := &Manager{d: d, reg: reg, tree: tree, method: method, version: version, data: data}
	// Single-threaded until returned, so publishing without mu is sound.
	m.publishLocked()
	return m
}

// Method reports the construction method reconstructions use. It is
// fixed at construction, so no lock is needed.
func (m *Manager) Method() Method { return m.method }

// PublishNotify returns a channel that receives a coalesced signal after
// every snapshot publication — updates and reconstruction swaps alike.
// The channel has capacity one and publishers never block on it: a
// burst of publishes while the consumer is busy collapses into a single
// pending signal, which is exactly the contract a background
// checkpointer wants (state changed since you last looked; capture
// whenever convenient). All callers share one channel.
func (m *Manager) PublishNotify() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.notify == nil {
		m.notify = make(chan struct{}, 1)
	}
	return m.notify
}
