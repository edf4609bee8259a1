package aptree

import (
	"sync/atomic"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Snapshot is one immutable epoch of classifier state: an AP Tree, a
// frozen evaluation view of the BDD it labels its nodes with, and the
// set of live predicate slots, all captured together under the manager's
// write lock and published through a single atomic pointer.
//
// Everything reachable from a Snapshot is immutable, so any number of
// goroutines may Classify through one concurrently — with updates, with
// reconstructions, and with each other — without any lock. A query that
// loads the snapshot pointer once is pinned to that epoch: stage 1 and
// stage 2 see one consistent tree and DD even if the manager swaps
// several times mid-query. A retained Snapshot stays valid across swaps
// indefinitely; its DD view is never garbage collected (the manager
// abandons a retired DD wholesale instead of reclaiming nodes from it —
// see bdd.View on the GC-at-swap rule).
//
// Two things change after publication, both on purpose. Classify
// increments the per-atom counter store shared with the live lineage, so
// queries answered from an old epoch still inform the distribution-aware
// rebuild (§V-D); and the owner's memo (Memo) fills as queries learn the
// epoch's answers.
type Snapshot struct {
	tree *Tree
	view *bdd.View
	// flat is the cache-packed classify core compiled for this epoch at
	// publish time: the stage-1 engine. The pointer tree is the build and
	// update structure and the reference the flat form is tested against.
	flat *Flat
	// live has bit id set iff slot id held a predicate at capture time
	// (IDs issued later read as dead). No query consults it — a removed
	// ID is unwired in the update that removes it — it is what tells a
	// checkpoint a live all-deny slot (bdd.False) from a dead one.
	live    predicate.Bitset
	numLive int
	version uint64
	// data is the owner's per-epoch value (the facade's predicate
	// wiring), published in the same store as the tree; see Tx.SetData.
	data any

	visits visitView

	// atomView caches the lazily built per-epoch atom index (see
	// Snapshot.Atoms in atomview.go). CAS-installed; benign build race.
	atomView atomic.Pointer[AtomView]
	// memo is the owner's per-epoch memo (see Memo), installed the same
	// way.
	memo atomic.Pointer[any]
}

// Classify runs the stage-1 search against this epoch — a descent over
// its compiled flat core — and returns the leaf together with the epoch's
// version. It takes no lock and does not allocate.
func (s *Snapshot) Classify(pkt []byte) (*Node, uint64) {
	s.debugCheckFlat()
	n := s.flat.Classify(pkt)
	s.visits.add(n.AtomID)
	return n, s.version
}

// ClassifyPointer runs stage 1 through the pointer tree — the reference
// the differential fuzz and churn suites and internal/verify hold the
// flat core against. Node BDDs evaluate through the frozen view, so a
// writer growing the live DD never races with it. It does no visit
// accounting, so differential probing never skews the §V-D distribution
// statistics.
func (s *Snapshot) ClassifyPointer(pkt []byte) (*Node, uint64) {
	n := s.tree.root
	v := s.view
	preds := s.tree.preds
	for !n.IsLeaf() {
		if v.EvalBits(preds[n.Pred], pkt) {
			n = n.T
		} else {
			n = n.F
		}
	}
	return n, s.version
}

// Flat returns the epoch's compiled flat classify core.
func (s *Snapshot) Flat() *Flat { return s.flat }

// IsLive reports whether predicate id was live in this epoch; the
// checkpoint encoder serialises it.
func (s *Snapshot) IsLive(id int32) bool { return s.live.Get(int(id)) }

// Data returns the owner's value published with this epoch (Tx.SetData),
// or nil if none was ever set. The tree never reads it.
func (s *Snapshot) Data() any { return s.data }

// Memo returns the owner's memo for this epoch, building it with build on
// first use: the stage-2 twin of Data, for what a query learns rather than
// what a writer publishes. Concurrent first calls may each build, and the
// first install wins, so build must be a pure function of the snapshot.
// The memo lives and dies with its epoch; the tree never reads it.
func (s *Snapshot) Memo(build func(*Snapshot) any) any {
	if m := s.memo.Load(); m != nil {
		return *m
	}
	m := build(s)
	s.memo.CompareAndSwap(nil, &m)
	return *s.memo.Load()
}

// Version reports the reconstruction epoch this snapshot belongs to.
func (s *Snapshot) Version() uint64 { return s.version }

// NumLive reports the number of live predicates in this epoch.
func (s *Snapshot) NumLive() int { return s.numLive }

// Tree returns the epoch's AP Tree. The tree (like everything else
// reachable from the snapshot) must be treated as read-only.
func (s *Snapshot) Tree() *Tree { return s.tree }

// View returns the frozen BDD evaluation view, whose memory statistics
// describe the DD as of this epoch.
func (s *Snapshot) View() *bdd.View { return s.view }
