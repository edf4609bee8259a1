//go:build apdebug

// Debug-tagged snapshot checks: the GC-at-swap rule promises that a
// retained snapshot keeps evaluating correctly against its abandoned DD
// for as long as it is held. With -tags apdebug the retained tree's leaf
// partition is re-verified with real BDD operations on that old DD after
// the live manager has swapped epochs twice.
package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

func TestApdebugRetainedSnapshotSurvivesTwoSwaps(t *testing.T) {
	m := NewManager(16, MethodQuick)
	rng := rand.New(rand.NewSource(37))
	var ids []int32
	for i := 0; i < 10; i++ {
		bits := uint64(rng.Uint32()) >> 20
		ids = append(ids, m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 1+rng.Intn(10), 16)
		}))
	}
	trace := make([][]byte, 128)
	for i := range trace {
		trace[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}

	old := m.Snapshot()
	v0 := old.Version()
	want := make([]*Node, len(trace))
	for i, pkt := range trace {
		want[i], _ = old.Classify(pkt)
	}

	// Swap 1: more predicates, unweighted rebuild.
	for i := 0; i < 3; i++ {
		bits := uint64(rng.Uint32()) >> 20
		m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 1+rng.Intn(10), 16)
		})
	}
	m.Reconstruct(false)
	// Swap 2: a removal, then a weighted rebuild.
	m.RemovePredicate(ids[0])
	m.Reconstruct(true)

	if got := m.Version(); got != v0+2 {
		t.Fatalf("manager version = %d, want %d after two swaps", got, v0+2)
	}
	if old.Version() != v0 {
		t.Fatalf("retained snapshot's version changed: %d -> %d", v0, old.Version())
	}
	for i, pkt := range trace {
		leaf, v := old.Classify(pkt)
		if leaf != want[i] {
			t.Fatalf("retained snapshot re-classified packet %d to a different leaf", i)
		}
		if v != v0 {
			t.Fatalf("retained snapshot reports epoch %d, want %d", v, v0)
		}
	}
	// The retained tree must still satisfy the leaf-partition invariant,
	// evaluated with BDD operations against the abandoned epoch's DD.
	if err := old.Tree().CheckLeafPartition(); err != nil {
		t.Fatalf("retained epoch's partition broke after swaps: %v", err)
	}
}
