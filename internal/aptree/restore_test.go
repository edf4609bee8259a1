package aptree

import (
	"bytes"
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// cloneStructure deep-copies a node structure, mapping leaf BDD refs
// through refMap — the shape of work the checkpoint decoder performs.
func cloneStructure(n *Node, refMap map[bdd.Ref]bdd.Ref) *Node {
	c := &Node{Pred: n.Pred}
	if n.IsLeaf() {
		c.AtomID = n.AtomID
		c.BDD = refMap[n.BDD]
		c.Member = n.Member.Clone(64 * len(n.Member))
		return c
	}
	c.T = cloneStructure(n.T, refMap)
	c.F = cloneStructure(n.F, refMap)
	return c
}

// TestRestoreRoundTrip rebuilds a manager from serialized parts — the
// exact sequence the checkpoint restore path runs: View.Save the epoch's
// BDD roots, Load them into a fresh DD, re-link the node structure, then
// RestoreRegistry/RestoreTree/NewRestoredManager — and checks the result
// classifies identically and stays fully updatable.
func TestRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewManager(16, MethodOAPT)
	var ids []int32
	for i := 0; i < 24; i++ {
		ids = append(ids, addRandomPredicate(m, rng))
	}
	m.Reconstruct(false)
	for i := 0; i < 6; i++ {
		ids = append(ids, addRandomPredicate(m, rng))
	}
	// Dead slots (one from before the rebuild, one from after) and a live
	// slot holding the empty predicate, as an all-deny ACL registers.
	m.RemovePredicate(ids[2])
	m.RemovePredicate(ids[25])
	ids = append(ids, m.AddPredicate(func(*bdd.DD) bdd.Ref { return bdd.False }))

	snap := m.Snapshot()
	tree := snap.Tree()

	// Serialize the epoch's roots: every predicate slot, then every leaf
	// atom, in deterministic order.
	roots := make([]bdd.Ref, 0, tree.NumPreds()+tree.NumLeaves())
	for id := 0; id < tree.NumPreds(); id++ {
		roots = append(roots, tree.Pred(int32(id)))
	}
	var leafOld []bdd.Ref
	tree.Leaves(func(n *Node) { leafOld = append(leafOld, n.BDD) })
	roots = append(roots, leafOld...)

	var buf bytes.Buffer
	if err := snap.View().Save(&buf, roots...); err != nil {
		t.Fatal(err)
	}
	d2 := bdd.New(16)
	loaded, err := d2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(roots) {
		t.Fatalf("loaded %d roots, saved %d", len(loaded), len(roots))
	}

	preds2 := loaded[:tree.NumPreds()]
	refMap := make(map[bdd.Ref]bdd.Ref, len(leafOld))
	for i, old := range leafOld {
		refMap[old] = loaded[tree.NumPreds()+i]
	}
	live := make([]bool, tree.NumPreds())
	for id := range live {
		live[id] = snap.IsLive(int32(id))
	}

	reg2, err := RestoreRegistry(preds2, live)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := RestoreTree(d2, cloneStructure(tree.Root(), refMap), preds2, tree.NextAtom())
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewRestoredManager(d2, reg2, tree2, m.Method(), snap.Version(), nil)
	if m2.Version() != snap.Version() {
		t.Fatalf("restored version %d, want %d", m2.Version(), snap.Version())
	}
	if m2.NumLive() != m.NumLive() {
		t.Fatalf("restored live count %d, want %d", m2.NumLive(), m.NumLive())
	}
	if tree2.NumLeaves() != tree.NumLeaves() {
		t.Fatalf("restored leaf count %d, want %d", tree2.NumLeaves(), tree.NumLeaves())
	}
	if err := tree2.CheckLeafPartition(); err != nil {
		t.Fatal(err)
	}

	checkSame := func() {
		for i := 0; i < 500; i++ {
			pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			a, _ := m.Classify(pkt)
			b, _ := m2.Classify(pkt)
			for _, id := range ids {
				if a.Member.Get(int(id)) != b.Member.Get(int(id)) {
					t.Fatalf("membership bit %d differs for packet %x", id, pkt)
				}
			}
		}
	}
	checkSame()

	// The restored manager must be a full peer: updatable, rebuildable,
	// with version numbers continuing past the restored epoch.
	v := m2.Version()
	id := addRandomPredicate(m2, rng)
	if !m2.Snapshot().IsLive(id) {
		t.Fatal("predicate added after restore is not live")
	}
	m2.Reconstruct(true)
	if m2.Version() != v+1 {
		t.Fatalf("version after post-restore reconstruct = %d, want %d", m2.Version(), v+1)
	}
	if err := m2.Tree().Validate(m2.LiveIDs()); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreTreeRejectsBadStructure(t *testing.T) {
	d := bdd.New(8)
	p := d.Retain(d.FromPrefix(0, 0x80, 1, 8))
	np := d.Retain(d.Not(p))
	leaf := func(atom int32, ref bdd.Ref) *Node {
		mb := predicate.NewBitset(1)
		return &Node{Pred: -1, AtomID: atom, BDD: ref, Member: mb}
	}
	cases := []struct {
		name  string
		root  *Node
		preds []bdd.Ref
		next  int32
	}{
		{"nil root", nil, []bdd.Ref{p}, 1},
		{"atom out of range", leaf(3, bdd.True), []bdd.Ref{p}, 1},
		{"negative atom", leaf(-1, bdd.True), []bdd.Ref{p}, 1},
		{"false leaf bdd", leaf(0, bdd.False), []bdd.Ref{p}, 1},
		{"duplicate atom", &Node{Pred: 0, T: leaf(0, p), F: leaf(0, np)}, []bdd.Ref{p}, 2},
		{"pred out of range", &Node{Pred: 5, T: leaf(0, p), F: leaf(1, np)}, []bdd.Ref{p}, 2},
		{"pred absent", &Node{Pred: 0, T: leaf(0, p), F: leaf(1, np)}, []bdd.Ref{bdd.False}, 2},
		{"missing child", &Node{Pred: 0, T: leaf(0, p)}, []bdd.Ref{p}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RestoreTree(d, tc.root, tc.preds, tc.next); err == nil {
				t.Fatal("RestoreTree accepted invalid structure")
			}
		})
	}
	// And the well-formed version of the same shape is accepted: leaf 0
	// lies inside p, so its membership bit 0 is set.
	inside := leaf(0, p)
	inside.Member.Set(0, true)
	tr, err := RestoreTree(d, &Node{Pred: 0, T: inside, F: leaf(1, np)}, []bdd.Ref{p}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 || tr.Root().Depth != 0 || tr.Root().T.Depth != 1 {
		t.Fatal("restored tree shape wrong")
	}
	if err := tr.Validate([]int32{0}); err != nil {
		t.Fatalf("accepted tree is not valid: %v", err)
	}
}

func TestRestoreRegistryRejects(t *testing.T) {
	if _, err := RestoreRegistry([]bdd.Ref{bdd.True}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// A live slot may hold the empty predicate (an all-deny ACL).
	r, err := RestoreRegistry([]bdd.Ref{bdd.True, bdd.False, bdd.False}, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LiveIDs()) != 2 || r.NumIDs() != 3 || !r.IsLive(0) || r.IsLive(1) || !r.IsLive(2) {
		t.Fatal("restored registry counts wrong")
	}
}

func TestPublishNotify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewManager(16, MethodOAPT)
	ch := m.PublishNotify()
	select {
	case <-ch:
		t.Fatal("signal before any publish")
	default:
	}
	addRandomPredicate(m, rng)
	select {
	case <-ch:
	default:
		t.Fatal("no signal after update publish")
	}
	// A burst of publishes with nobody draining coalesces into exactly one
	// pending signal; publishers never block.
	for i := 0; i < 5; i++ {
		addRandomPredicate(m, rng)
	}
	m.Reconstruct(false)
	<-ch
	select {
	case <-ch:
		t.Fatal("coalesced burst left more than one pending signal")
	default:
	}
	// Reconstruction swaps signal too.
	m.Reconstruct(false)
	select {
	case <-ch:
	default:
		t.Fatal("no signal after reconstruction swap")
	}
}
