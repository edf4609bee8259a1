package predicate

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

func TestAtomsAddPredicateIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	d := bdd.New(16)
	var preds []bdd.Ref
	for i := 0; i < 10; i++ {
		preds = append(preds, d.FromPrefix(0, uint64(rng.Uint32()>>16), 1+rng.Intn(8), 16))
	}
	// Incremental: start from 5 predicates and add the rest one by one.
	inc := Compute(d, preds[:5])
	for i := 5; i < 10; i++ {
		inc.AddPredicate(i, preds[i])
	}
	// Batch: compute all at once.
	batch := Compute(d, preds)

	// Same partition: same atom count and same atom BDD set.
	if inc.N() != batch.N() {
		t.Fatalf("incremental %d atoms, batch %d", inc.N(), batch.N())
	}
	batchSet := map[bdd.Ref]int{}
	for i, a := range batch.List {
		batchSet[a] = i
	}
	for i, a := range inc.List {
		j, ok := batchSet[a]
		if !ok {
			t.Fatalf("incremental atom %d missing from batch partition", i)
		}
		// Membership vectors must agree bit for bit.
		for p := 0; p < 10; p++ {
			if inc.Member[i].Get(p) != batch.Member[j].Get(p) {
				t.Fatalf("atom %d: membership bit %d differs", i, p)
			}
		}
	}
	if err := inc.Verify(preds); err != nil {
		t.Fatalf("incremental atom set invalid: %v", err)
	}
}

func TestAtomsAddPredicateGrowsMembership(t *testing.T) {
	d := bdd.New(8)
	a := Compute(d, []bdd.Ref{d.FromPrefix(0, 0x80, 1, 8)})
	// Adding with a sparse, larger ID must grow vectors safely.
	a.AddPredicate(7, d.FromPrefix(0, 0xC0, 2, 8))
	if a.NumPreds != 8 {
		t.Fatalf("NumPreds = %d, want 8", a.NumPreds)
	}
	for i := range a.List {
		want := d.Implies(a.List[i], d.FromPrefix(0, 0xC0, 2, 8))
		if a.Member[i].Get(7) != want {
			t.Fatalf("atom %d: bit 7 wrong", i)
		}
		// Bits 1..6 were never assigned and must read false.
		for p := 1; p < 7; p++ {
			if a.Member[i].Get(p) {
				t.Fatalf("atom %d: unassigned bit %d set", i, p)
			}
		}
	}
}

func TestAtomsAddDuplicatePredicate(t *testing.T) {
	d := bdd.New(8)
	p := d.FromPrefix(0, 0x80, 1, 8)
	a := Compute(d, []bdd.Ref{p})
	n := a.N()
	a.AddPredicate(1, p)
	if a.N() != n {
		t.Fatalf("duplicate predicate split atoms: %d -> %d", n, a.N())
	}
	for i := range a.List {
		if a.Member[i].Get(0) != a.Member[i].Get(1) {
			t.Fatal("duplicate predicates must have identical membership")
		}
	}
}

// TestAtomsAddPredicateGrowsOnlyShortVectors requires AddPredicate to set
// a bit the membership vectors already hold in place, and to grow every
// vector once an ID lies past their capacity.
func TestAtomsAddPredicateGrowsOnlyShortVectors(t *testing.T) {
	d := bdd.New(8)
	a := ComputeMapped(d, []bdd.Ref{d.FromPrefix(0, 0x80, 1, 8)}, []int{0}, 64)
	words := make([]*uint64, len(a.Member))
	for i, m := range a.Member {
		words[i] = &m[0]
	}
	a.AddPredicate(5, d.FromPrefix(0, 0x00, 1, 8)) // splits no atom
	for i, m := range a.Member {
		if &m[0] != words[i] {
			t.Fatalf("atom %d: a vector with room for bit 5 was copied", i)
		}
	}
	a.AddPredicate(64, d.FromPrefix(0, 0xC0, 2, 8))
	for i, m := range a.Member {
		if len(m) != 2 {
			t.Fatalf("atom %d: %d words after adding predicate 64, want 2", i, len(m))
		}
	}
	preds := make([]bdd.Ref, 65)
	preds[0], preds[5], preds[64] = d.FromPrefix(0, 0x80, 1, 8), d.FromPrefix(0, 0x00, 1, 8), d.FromPrefix(0, 0xC0, 2, 8)
	if err := a.Verify(preds); err != nil {
		t.Fatal(err)
	}
}
