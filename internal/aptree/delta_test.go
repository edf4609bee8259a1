package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// liveAtoms computes from scratch the atoms of the live subset of the
// ID-indexed preds.
func liveAtoms(d *bdd.DD, preds []bdd.Ref, live []int32) *predicate.Atoms {
	liveRefs := make([]bdd.Ref, 0, len(live))
	ids := make([]int, 0, len(live))
	for _, id := range live {
		liveRefs = append(liveRefs, preds[id])
		ids = append(ids, int(id))
	}
	return predicate.ComputeMapped(d, liveRefs, ids, len(preds))
}

// freshRefinement returns the size of the full refinement of the live
// predicate set — the leaf count a correct tree over it must have.
func freshRefinement(d *bdd.DD, preds []bdd.Ref, live []int32) int {
	return liveAtoms(d, preds, live).N()
}

func TestRemovePredicateMergesToFullRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 12, 16, rng)
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)

	live := append([]int32(nil), in.Live...)
	for len(live) > 0 {
		k := rng.Intn(len(live))
		victim := live[k]
		live = append(live[:k], live[k+1:]...)
		tree = removePred(tree, victim)
		if err := tree.Validate(live); err != nil {
			t.Fatalf("after removing %d: %v", victim, err)
		}
		if want := freshRefinement(d, preds, live); tree.NumLeaves() != want {
			t.Fatalf("after removing %d: %d leaves, full refinement has %d",
				victim, tree.NumLeaves(), want)
		}
		checkClassification(t, tree, d, preds, live, 2, rng, 50)
	}
	if tree.NumLeaves() != 1 {
		t.Fatalf("empty predicate set must leave the single atom True, got %d leaves", tree.NumLeaves())
	}
}

func TestRemovePredicateIsPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 8, 16, rng)
	in := buildInput(d, preds, rng)
	old := Build(in, MethodQuick)
	oldLeaves := old.NumLeaves()

	nt := removePred(old, 3)
	rest := make([]int32, 0, len(in.Live)-1)
	for _, id := range in.Live {
		if id != 3 {
			rest = append(rest, id)
		}
	}
	if err := nt.Validate(rest); err != nil {
		t.Fatal(err)
	}
	// The old version must be untouched: same leaf count, still valid for
	// the full predicate set, still routing on predicate 3.
	if old.NumLeaves() != oldLeaves {
		t.Fatal("removing a predicate mutated the receiver's leaf count")
	}
	if err := old.Validate(in.Live); err != nil {
		t.Fatalf("receiver corrupted: %v", err)
	}
	if old.Pred(3) == bdd.False || nt.Pred(3) != bdd.False {
		t.Fatal("predicate slot handling wrong across versions")
	}
	checkClassification(t, old, d, preds, in.Live, 2, rng, 100)
	checkClassification(t, nt, d, preds, rest, 2, rng, 100)
}

// TestRemovePredicateAbsentIDIsNoop: an ID placed as bdd.False (an all-deny
// ACL registers it) leaves no structural trace, so removing it, False →
// False, shares the receiver, as does any update that leaves a slot's BDD
// as it is. Placing it still grows the slot table, which the checkpoint
// encodes as the ID space.
func TestRemovePredicateAbsentIDIsNoop(t *testing.T) {
	d := bdd.New(8)
	in := Input{D: d, Atoms: predicate.Compute(d, nil)}
	tree := Build(in, MethodOrder)
	placed := addPred(tree, 0, bdd.False)
	if placed.NumPreds() != 1 || placed.Root() != tree.Root() {
		t.Fatalf("placing bdd.False: %d slots, root shared %v", placed.NumPreds(), placed.Root() == tree.Root())
	}
	if nt := removePred(placed, 0); nt != placed {
		t.Fatal("removing an empty predicate must share the receiver")
	}
	p := d.Retain(d.FromPrefix(0, 0x80, 1, 8))
	withP := addPred(placed, 1, p)
	if nt := withP.ReplacePredicate(1, p, p); nt != withP {
		t.Fatal("replacing a predicate by itself must share the receiver")
	}
}

// TestUpdateBatchRemoveAdd drives the path the product runs: one
// Manager.Update carrying Tx.Remove calls followed by Tx.Add calls — the
// delta form of an LPM change — must land on the full refinement of the
// surviving predicate set, whatever the batch.
func TestUpdateBatchRemoveAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 10, 16, rng)
	in := buildInput(d, preds, rng)
	reg := NewRegistry() // issues the IDs buildInput assumed: 0..len(preds)-1
	for _, p := range preds {
		reg.Add(p)
	}
	m := NewManagerWith(d, reg, Build(in, MethodOAPT), MethodOAPT, nil)
	live := append([]int32(nil), in.Live...)

	allPreds := append([]bdd.Ref(nil), preds...)
	for round := 0; round < 10; round++ {
		// Remove up to two random live predicates, add up to two fresh ones,
		// in one transaction. Removals run first so an old/new swap never
		// doubles the refinement in between.
		var removals []int32
		for k := 0; k < 2 && len(live) > 1; k++ {
			i := rng.Intn(len(live))
			removals = append(removals, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		nAdds := 1 + rng.Intn(2)
		before := m.Snapshot()
		m.Update(func(tx *Tx) {
			for _, id := range removals {
				tx.Remove(id)
			}
			for k := 0; k < nAdds; k++ {
				p := tx.DD().FromPrefix(0, uint64(rng.Uint32()>>16), 1+rng.Intn(8), 16)
				id := tx.Add(p)
				if int(id) != len(allPreds) {
					t.Fatalf("round %d: Add issued ID %d, want %d", round, id, len(allPreds))
				}
				allPreds = append(allPreds, p)
				live = append(live, id)
			}
		})
		tree := m.Tree()
		if tree == before.Tree() {
			t.Fatalf("round %d: update published the previous tree version", round)
		}
		if err := tree.Validate(live); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := freshRefinement(d, allPreds, live); tree.NumLeaves() != want {
			t.Fatalf("round %d: %d leaves, full refinement has %d", round, tree.NumLeaves(), want)
		}
		for _, id := range removals {
			if m.Ref(id) != bdd.False || tree.Pred(id) != bdd.False {
				t.Fatalf("round %d: removed predicate %d keeps a ref (registry %v, tree %v)",
					round, id, m.Ref(id), tree.Pred(id))
			}
		}
		checkClassification(t, tree, d, allPreds, live, 2, rng, 50)
	}
}

// TestDeltaStatsCounts: one Add that splits and one Remove that merges
// tally exactly that; removing a predicate with no structural trace (the
// empty predicate of an all-deny ACL) does no work and shares the tree
// version; earlier versions stay untouched throughout.
func TestDeltaStatsCounts(t *testing.T) {
	m := NewManager(8, MethodOrder) // single leaf True
	base := m.Tree()
	var id, deny int32
	var st DeltaStats
	m.Update(func(tx *Tx) {
		id = tx.Add(tx.DD().FromPrefix(0, 0x80, 1, 8))
		deny = tx.Add(bdd.False)
		st = tx.stats
	})
	if st.Splits != 1 || st.Merges != 0 {
		t.Fatalf("add stats = %+v, want one split", st)
	}
	split := m.Tree()
	m.Update(func(tx *Tx) {
		tx.Remove(deny)
		st = tx.stats
	})
	if !st.zero() || m.Tree() != split {
		t.Fatalf("removing an empty predicate did structural work: %+v", st)
	}
	m.Update(func(tx *Tx) {
		tx.Remove(id)
		st = tx.stats
	})
	if st.Merges != 1 || st.Splits != 0 {
		t.Fatalf("remove stats = %+v, want one merge", st)
	}
	if m.Tree().NumLeaves() != 1 {
		t.Fatalf("leaves = %d after add+remove, want 1", m.Tree().NumLeaves())
	}
	if base.NumLeaves() != 1 || split.NumLeaves() != 2 {
		t.Fatal("update mutated an earlier tree version")
	}
}

// TestManagerRemoveVersusTombstone checks the Tx.Remove path end to end
// through the manager: removed predicates physically leave the tree (leaf
// count shrinks back), snapshots pinned before the removal keep the old
// refinement, and classification agrees with direct evaluation throughout.
func TestManagerRemoveVersusTombstone(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := NewManager(16, MethodOAPT)
	var ids []int32
	for i := 0; i < 12; i++ {
		ids = append(ids, addRandomPredicate(m, rng))
	}
	before := m.Snapshot()
	beforeLeaves := m.Tree().NumLeaves()

	// Hard-remove half the predicates.
	for _, id := range ids[:6] {
		m.Update(func(tx *Tx) { tx.Remove(id) })
	}
	after := m.Tree().NumLeaves()
	if after >= beforeLeaves {
		t.Fatalf("leaf count %d did not shrink from %d after six removals", after, beforeLeaves)
	}
	// The pinned snapshot keeps the old epoch's refinement.
	if got := before.Tree().NumLeaves(); got != beforeLeaves {
		t.Fatalf("pinned snapshot leaf count changed: %d != %d", got, beforeLeaves)
	}
	// Live classification must match the remaining predicate set.
	d := m.DD()
	tree := m.Tree()
	for i := 0; i < 200; i++ {
		pkt := make([]byte, 2)
		rng.Read(pkt)
		leaf := tree.Classify(pkt)
		for _, id := range ids[6:] {
			want := d.EvalBits(m.Ref(id), pkt)
			if got := leaf.Member.Get(int(id)); got != want {
				t.Fatalf("membership bit %d = %v, eval = %v", id, got, want)
			}
		}
		// Removed predicates must read as clear.
		for _, id := range ids[:6] {
			if leaf.Member.Get(int(id)) {
				t.Fatalf("removed predicate %d still has membership bits set", id)
			}
		}
	}
	// The tree no longer routes on any removed predicate.
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for _, id := range ids[:6] {
			if n.Pred == id {
				t.Fatalf("tree still routes on removed predicate %d", id)
			}
		}
		walk(n.T)
		walk(n.F)
	}
	walk(m.Tree().Root())
}

// TestReconstructReplaysHardRemovals interleaves Tx.Remove with running
// reconstructions. Removals that land between a rebuild's snapshot and its
// swap are journaled as hard deletions and replayed onto the fresh tree
// (phase 4); whatever the interleaving, the swapped-in tree must never
// route on, or carry membership bits for, a removed predicate, and must
// still classify the remaining set correctly.
func TestReconstructReplaysHardRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 8; round++ {
		m := NewManager(16, MethodQuick)
		var ids []int32
		for i := 0; i < 12; i++ {
			ids = append(ids, addRandomPredicate(m, rng))
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.Reconstruct(false)
			m.Reconstruct(true)
		}()
		removed := ids[:4]
		for _, id := range removed {
			m.Update(func(tx *Tx) { tx.Remove(id) })
		}
		added := addRandomPredicate(m, rng)
		<-done
		// One more swap with a quiet journal so the final tree has seen a
		// rebuild after every removal, whichever phase they landed in.
		m.Reconstruct(false)

		tree := m.Tree()
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.IsLeaf() {
				for _, id := range removed {
					if n.Member.Get(int(id)) {
						t.Fatalf("round %d: membership bit of removed predicate %d set", round, id)
					}
				}
				return
			}
			for _, id := range removed {
				if n.Pred == id {
					t.Fatalf("round %d: tree routes on removed predicate %d", round, id)
				}
			}
			walk(n.T)
			walk(n.F)
		}
		walk(tree.Root())
		d := m.DD()
		live := append(append([]int32(nil), ids[4:]...), added)
		for i := 0; i < 100; i++ {
			pkt := make([]byte, 2)
			rng.Read(pkt)
			leaf := tree.Classify(pkt)
			for _, id := range live {
				if got, want := leaf.Member.Get(int(id)), d.EvalBits(m.Ref(id), pkt); got != want {
					t.Fatalf("round %d: membership bit %d = %v, eval = %v", round, id, got, want)
				}
			}
		}
	}
}
