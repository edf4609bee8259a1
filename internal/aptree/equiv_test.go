package aptree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"apclassifier/internal/bdd"
)

func TestSemanticallyEqualAcrossMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 20, 16, rng)
	in := buildInput(d, preds, rng)
	oapt := Build(in, MethodOAPT)
	quickT := Build(in, MethodQuick)
	in.Rand = rand.New(rand.NewSource(5))
	random := Build(in, MethodRandom)
	for _, other := range []*Tree{quickT, random} {
		if err := SemanticallyEqual(oapt, other, in.Live); err != nil {
			t.Fatalf("construction methods disagree: %v", err)
		}
	}
}

func TestSemanticallyEqualDetectsDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 10, 16, rng)
	in := buildInput(d, preds, rng)
	a := Build(in, MethodOAPT)
	b := Build(in, MethodOAPT)
	// Extend b with one extra predicate: membership must now differ for
	// the extended ID (a never saw it).
	extra := d.Retain(d.FromPrefix(0, 0x1234, 9, 16))
	id := int32(len(preds))
	b = b.AddPredicate(id, extra)
	// a's leaves have no bit for `id` (vectors too short) — compare only
	// shared IDs first (must pass), then the difference scenario via a
	// third tree that saw a different predicate under the same ID.
	if err := SemanticallyEqual(a, b, in.Live); err != nil {
		t.Fatalf("shared predicates should still agree: %v", err)
	}
	c := Build(in, MethodQuick)
	other := d.Retain(d.FromPrefix(0, 0xFFFF, 16, 16))
	c = c.AddPredicate(id, other)
	if err := SemanticallyEqual(b, c, []int32{id}); err == nil {
		t.Fatal("different predicates under the same ID must be detected")
	}
}

// TestRandomUpdateSequencesKeepTreeCorrect drives the live-update machinery
// with testing/quick-generated operation sequences and validates the full
// correctness contract after each batch.
func TestRandomUpdateSequencesKeepTreeCorrect(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(16, MethodOAPT)
		var live []int32
		ops := 30 + rng.Intn(40)
		for i := 0; i < ops; i++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				id := addRandomPredicate(m, rng)
				live = append(live, id)
			} else {
				k := rng.Intn(len(live))
				m.RemovePredicate(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if rng.Intn(10) == 0 {
				m.Reconstruct(false)
			}
		}
		// Contract: classification membership == direct evaluation for
		// every live predicate.
		d := m.DD()
		for probe := 0; probe < 100; probe++ {
			pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			leaf, _ := m.Classify(pkt)
			for _, id := range m.LiveIDs() {
				if leaf.Member.Get(int(id)) != d.EvalBits(m.Ref(id), pkt) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatalf("update sequence broke the tree contract: %v", err)
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 15, 16, rng)
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)
	s := tree.Stats()
	if s.Leaves != tree.NumLeaves() || s.SumDepth != tree.SumDepth() ||
		s.MaxDepth != tree.MaxDepth() || s.AvgDepth != tree.AverageDepth() {
		t.Fatalf("Stats inconsistent: %+v", s)
	}
}
