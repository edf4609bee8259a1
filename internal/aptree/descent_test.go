package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

// The tests in this file hold the one stage-1 engine — the snapshot's
// descent through its frozen view, single-packet and batched — to the live
// tree and the live DD, on predicate shapes and update programs chosen to
// reach its edges. Their names are kept from the compiled flat core they
// once held to the pointer descent; the "flat" side is now the frozen
// view, whose node store is a flat array, and the "pointer" side the live
// tree walked through the live DD (Tree.Classify, DD.EvalBits).

// mixedManager builds a manager whose predicate set mixes prefix
// minterms, unions of short and of long prefixes, and dense xor
// predicates with 2^13 satisfying paths each.
func mixedManager(t *testing.T, seed int64) (*Manager, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewManager(32, MethodOAPT)
	m.Update(func(tx *Tx) {
		d := tx.DD()
		for i := 0; i < 12; i++ { // minterms
			tx.Add(d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32))
		}
		for i := 0; i < 8; i++ { // few-bit unions
			a := d.FromPrefix(0, uint64(rng.Uint32()), 3+rng.Intn(6), 32)
			b := d.FromPrefix(0, uint64(rng.Uint32()), 3+rng.Intn(6), 32)
			tx.Add(d.Or(a, b))
		}
		for i := 0; i < 4; i++ { // wide unions of long prefixes
			a := d.FromPrefix(0, uint64(rng.Uint32()), 20+rng.Intn(12), 32)
			b := d.FromPrefix(0, uint64(rng.Uint32()), 20+rng.Intn(12), 32)
			tx.Add(d.Or(a, b))
		}
		for i := 0; i < 2; i++ { // dense xors
			x := d.FromPrefix(14*i, 1, 1, 1)
			for j := 1; j < 14; j++ {
				x = d.Xor(x, d.FromPrefix(14*i+j, 1, 1, 1))
			}
			tx.Add(x)
		}
	})
	return m, rng
}

// TestFlatMatchesPointer is the package-level differential: on the mixed
// predicate set, Snapshot.Classify, ClassifyUncounted and the batch
// descent must each return the leaf the live tree's own walk through the
// live DD returns, for random packets — including after live updates
// republish and after a Reconstruct swaps the DD.
func TestFlatMatchesPointer(t *testing.T) {
	m, rng := mixedManager(t, 11)
	probe := func(label string) {
		t.Helper()
		s := m.Snapshot()
		pkts := make([][]byte, 257)
		want := make([]*Node, len(pkts))
		for i := range pkts {
			// Alternate exact-length and overlong packets: the layout is 4
			// bytes, so the tail of an 8-byte packet is dead space the
			// descent must ignore.
			pkts[i] = make([]byte, 4+4*(i&1))
			rng.Read(pkts[i])
			want[i] = s.Tree().Classify(pkts[i])
			if got, _ := s.Classify(pkts[i]); got != want[i] {
				t.Fatalf("%s: pkt %x: Classify atom %d, live walk atom %d",
					label, pkts[i], got.AtomID, want[i].AtomID)
			}
			if got := s.ClassifyUncounted(pkts[i]); got != want[i] {
				t.Fatalf("%s: pkt %x: ClassifyUncounted atom %d, live walk atom %d",
					label, pkts[i], got.AtomID, want[i].AtomID)
			}
		}
		out := make([]*Node, len(pkts))
		s.ClassifyBatchWith(&BatchScratch{}, pkts, out)
		for i := range pkts {
			if out[i] != want[i] {
				t.Fatalf("%s: batch pkt %d: batch atom %d, live walk atom %d",
					label, i, out[i].AtomID, want[i].AtomID)
			}
		}
	}
	probe("initial")
	for round := 0; round < 3; round++ {
		addRandomPredicate(m, rng)
		probe("after update")
	}
	m.Reconstruct(false)
	probe("after reconstruct")
}

// TestFlatLayoutInvariants checks the structural properties the descent
// and the per-atom tables rely on, in every tree a manager publishes: the
// tree reached from the root is a tree (each node once, so the descent
// can never cycle), internal nodes test a live predicate ID in range and
// have both children, leaves carry distinct atom IDs below AtomIDBound
// (the size of every per-atom table), and the leaf count matches
// NumLeaves.
func TestFlatLayoutInvariants(t *testing.T) {
	m, rng := mixedManager(t, 12)
	check := func(label string) {
		t.Helper()
		s := m.Snapshot()
		tree := s.Tree()
		seen := map[*Node]bool{}
		atoms := map[int32]bool{}
		var walk func(n *Node)
		walk = func(n *Node) {
			if seen[n] {
				t.Fatalf("%s: node reached twice (pred %d, atom %d)", label, n.Pred, n.AtomID)
			}
			seen[n] = true
			if n.IsLeaf() {
				if n.T != nil || n.F != nil {
					t.Fatalf("%s: leaf %d has children", label, n.AtomID)
				}
				if n.AtomID < 0 || n.AtomID >= tree.AtomIDBound() {
					t.Fatalf("%s: atom ID %d outside [0, %d)", label, n.AtomID, tree.AtomIDBound())
				}
				if atoms[n.AtomID] {
					t.Fatalf("%s: atom ID %d on two leaves", label, n.AtomID)
				}
				atoms[n.AtomID] = true
				return
			}
			if int(n.Pred) >= tree.NumPreds() || !s.IsLive(n.Pred) {
				t.Fatalf("%s: internal node tests predicate %d (%d slots, live %v)",
					label, n.Pred, tree.NumPreds(), s.IsLive(n.Pred))
			}
			if n.T == nil || n.F == nil {
				t.Fatalf("%s: internal node %d misses a child", label, n.Pred)
			}
			walk(n.T)
			walk(n.F)
		}
		walk(tree.Root())
		if len(atoms) != tree.NumLeaves() {
			t.Fatalf("%s: walked %d leaves, tree records %d", label, len(atoms), tree.NumLeaves())
		}
	}
	check("initial")
	var added []int32
	for i := 0; i < 4; i++ {
		added = append(added, addRandomPredicate(m, rng))
		check("after add")
	}
	m.RemovePredicate(added[1])
	check("after remove")
	m.Reconstruct(false)
	check("after reconstruct")
}

// TestFlatLoweringExhaustive enumerates every assignment of a 16-bit
// header space against one-predicate trees whose predicates take the
// shapes that stress an evaluator — prefix minterms at and off byte
// boundaries, unions and xors of short and long prefixes, byte parity
// with up to 2^13 paths. Every packet must land, single and batched, on a
// leaf whose atom holds it and whose membership bit equals the live DD's
// evaluation of the predicate, and the tree must have exactly its two
// atoms.
func TestFlatLoweringExhaustive(t *testing.T) {
	short := func(d *bdd.DD, v uint64, l int) bdd.Ref { return d.FromPrefix(0, v<<8, l, 16) }
	// parity of the top n header bits has 2^(n-1) satisfying paths.
	parity := func(d *bdd.DD, n int) bdd.Ref {
		x := d.FromPrefix(0, 1, 1, 1)
		for j := 1; j < n; j++ {
			x = d.Xor(x, d.FromPrefix(j, 1, 1, 1))
		}
		return x
	}
	cases := []struct {
		name  string
		build func(d *bdd.DD) bdd.Ref
	}{
		{"minterm-short", func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0xA500, 5, 16) }},
		{"minterm-full", func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0x1234, 16, 16) }},
		{"minterm-offset", func(d *bdd.DD) bdd.Ref { return d.FromPrefix(6, 0x2A0, 7, 10) }},
		{"union-short-cubes", func(d *bdd.DD) bdd.Ref { return d.Or(short(d, 0x40, 3), short(d, 0x90, 5)) }},
		{"union-12bit-cubes", func(d *bdd.DD) bdd.Ref {
			return d.Or(d.FromPrefix(0, 0x0120, 12, 16), d.FromPrefix(0, 0xF300, 9, 16))
		}},
		{"xor-short-cubes", func(d *bdd.DD) bdd.Ref { return d.Xor(short(d, 0xC0, 2), short(d, 0x30, 4)) }},
		{"parity-8bit-fallback", func(d *bdd.DD) bdd.Ref { return parity(d, 8) }},
		{"union-cubes", func(d *bdd.DD) bdd.Ref {
			return d.Or(d.FromPrefix(0, 0x4321, 16, 16), d.FromPrefix(0, 0x8765, 16, 16))
		}},
		{"acl-cubes", func(d *bdd.DD) bdd.Ref {
			return d.Or(d.Or(d.FromPrefix(0, 0xAB00, 13, 16), d.FromPrefix(0, 0x1100, 14, 16)), d.FromPrefix(0, 0xF0F0, 16, 16))
		}},
		{"parity-14bit-fallback", func(d *bdd.DD) bdd.Ref { return parity(d, 14) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(16, MethodOAPT)
			id := m.AddPredicate(c.build)
			s, d, ref := m.Snapshot(), m.DD(), m.Ref(id)
			if n := s.Tree().NumLeaves(); n != 2 {
				t.Fatalf("one-predicate tree has %d leaves, want 2", n)
			}
			pkts := make([][]byte, 1<<16)
			for a := range pkts {
				pkts[a] = []byte{byte(a >> 8), byte(a)}
			}
			out := make([]*Node, len(pkts))
			s.ClassifyBatchWith(&BatchScratch{}, pkts, out)
			for a, pkt := range pkts {
				leaf := s.ClassifyUncounted(pkt)
				if out[a] != leaf {
					t.Fatalf("assignment %04x: batch atom %d, single atom %d", a, out[a].AtomID, leaf.AtomID)
				}
				if !d.EvalBits(leaf.BDD, pkt) {
					t.Fatalf("assignment %04x: leaf atom %d does not hold it", a, leaf.AtomID)
				}
				if got, want := leaf.Member.Get(int(id)), d.EvalBits(ref, pkt); got != want {
					t.Fatalf("assignment %04x: leaf membership %v, live DD eval %v", a, got, want)
				}
			}
		})
	}
}

// witness returns a packet of nbytes satisfying f in v (don't-care bits
// zero).
func witness(v *bdd.View, f bdd.Ref, nbytes int) []byte {
	pkt := make([]byte, nbytes)
	for i, b := range v.AnySat(f) {
		if b == 1 {
			pkt[i>>3] |= 0x80 >> (i & 7)
		}
	}
	return pkt
}

// checkPublished fails unless s pairs its own tree with a view of the DD
// that tree labels its nodes with, frozen after the tree was built: every
// leaf's atom must evaluate in the view, and the witness packet the view
// finds for it must descend to that very leaf.
func checkPublished(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	if s.Tree() == nil || s.View() == nil {
		t.Fatalf("%s: snapshot without a tree or a view", label)
	}
	if got, want := s.View().NumVars(), s.Tree().D.NumVars(); got != want {
		t.Fatalf("%s: view over %d variables, tree's DD over %d", label, got, want)
	}
	nbytes := (s.View().NumVars() + 7) / 8
	s.Tree().Leaves(func(leaf *Node) {
		pkt := witness(s.View(), leaf.BDD, nbytes)
		if !s.View().EvalBits(leaf.BDD, pkt) {
			t.Fatalf("%s: atom %d: the view does not hold its own witness", label, leaf.AtomID)
		}
		if got := s.ClassifyUncounted(pkt); got != leaf {
			t.Fatalf("%s: atom %d's witness descends to atom %d", label, leaf.AtomID, got.AtomID)
		}
	})
}

// TestEveryPublishCompilesFlat drives the publishers a manager has —
// construction, Update, Reconstruct (NewRestoredManager is covered where
// a restored manager exists, in TestRestoreRoundTrip) — and checks each
// snapshot they publish with checkPublished, a retired epoch included.
func TestEveryPublishCompilesFlat(t *testing.T) {
	m := NewManager(32, MethodOAPT) // NewManagerWith over the one-atom tree
	checkPublished(t, "NewManagerWith", m.Snapshot())
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4; i++ {
		addRandomPredicate(m, rng)
		checkPublished(t, "Update", m.Snapshot())
	}
	before := m.Snapshot()
	m.Reconstruct(false)
	if m.Snapshot() == before {
		t.Fatal("Reconstruct did not publish")
	}
	checkPublished(t, "Reconstruct", m.Snapshot())
	addRandomPredicate(m, rng)
	checkPublished(t, "retired epoch", before)
}

// TestIncrementalFlatMatchesFresh holds the incremental publish to a
// build from scratch. A random program of updates — adds, removes and
// in-place replaces, several per update, with a Reconstruct halfway —
// must leave every published tree with the leaf partition and membership
// signatures of a cold build over the same live predicates in the same
// DD, and random packets must descend to the same atom in both.
func TestIncrementalFlatMatchesFresh(t *testing.T) {
	m, rng := mixedManager(t, 21)
	pkts := make([][]byte, 64)
	for step := 0; step < 300; step++ {
		if step == 150 {
			m.Reconstruct(false)
		}
		m.Update(func(tx *Tx) {
			d := tx.DD()
			for k := 1 + rng.Intn(3); k > 0; k-- {
				live := tx.m.reg.LiveIDs()
				id := live[rng.Intn(len(live))]
				p := d.FromPrefix(0, uint64(rng.Uint32()), 2+rng.Intn(20), 32)
				switch op := rng.Intn(6); {
				case op == 0 || len(live) < 8:
					tx.Add(p)
				case op == 1:
					tx.Remove(id)
				default:
					old := tx.Ref(id)
					next := d.Or(old, p)
					if op%2 == 0 {
						next = d.Diff(old, p)
					}
					tx.Replace(id, next, p)
				}
			}
		})
		s := m.Snapshot()
		cold := coldBuild(m)
		live := m.LiveIDs()
		if err := samePartition(partition(s.Tree(), live), partition(cold, live)); err != nil {
			t.Fatalf("step %d: incremental tree differs from a cold build: %v", step, err)
		}
		for i := range pkts {
			pkts[i] = make([]byte, 4)
			rng.Read(pkts[i])
			if got, want := s.ClassifyUncounted(pkts[i]).BDD, cold.Classify(pkts[i]).BDD; got != want {
				t.Fatalf("step %d: pkt %x: incremental atom %d, cold-build atom %d", step, pkts[i], got, want)
			}
		}
	}
}
