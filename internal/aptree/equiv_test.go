package aptree

import (
	"fmt"
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
	b = addPred(b, id, extra)
	// a's leaves have no bit for `id` (vectors too short) — compare only
	// shared IDs first (must pass), then the difference scenario via a
	// third tree that saw a different predicate under the same ID.
	if err := SemanticallyEqual(a, b, in.Live); err != nil {
		t.Fatalf("shared predicates should still agree: %v", err)
	}
	c := Build(in, MethodQuick)
	other := d.Retain(d.FromPrefix(0, 0xFFFF, 16, 16))
	c = addPred(c, id, other)
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

// SemanticallyEqual reports whether two trees over the same DD classify
// every packet into the same partition with the same membership bits for
// the given predicate IDs — the correctness notion for comparing
// construction methods and for checking reconstruction results against the
// incremental tree.
//
// The check is exact (BDD-level), not sampled: it walks both leaf sets and
// verifies each leaf of a is covered by leaves of b with identical
// membership bits on ids, and vice versa is implied by both partitioning
// the same space.
func SemanticallyEqual(a, b *Tree, ids []int32) error {
	if a.D != b.D {
		return fmt.Errorf("aptree: trees live in different DDs")
	}
	d := a.D
	var bLeaves []*Node
	b.Leaves(func(n *Node) { bLeaves = append(bLeaves, n) })

	var err error
	a.Leaves(func(la *Node) {
		if err != nil {
			return
		}
		remaining := la.BDD
		for _, lb := range bLeaves {
			inter := d.And(remaining, lb.BDD)
			if inter == bdd.False {
				continue
			}
			for _, id := range ids {
				if la.Member.Get(int(id)) != lb.Member.Get(int(id)) {
					err = fmt.Errorf("aptree: overlapping leaves disagree on predicate %d", id)
					return
				}
			}
			remaining = d.Diff(remaining, lb.BDD)
			if remaining == bdd.False {
				break
			}
		}
		if remaining != bdd.False {
			err = fmt.Errorf("aptree: leaf of a not covered by b's partition")
		}
	})
	return err
}

// Stats summarizes a tree for reporting.
type Stats struct {
	Leaves      int
	SumDepth    int
	AvgDepth    float64
	MaxDepth    int
	InternalMax int // deepest internal node chain == MaxDepth
}

// Stats computes summary statistics in one walk.
func (t *Tree) Stats() Stats {
	s := Stats{Leaves: t.numLeaves}
	t.Leaves(func(n *Node) {
		s.SumDepth += int(n.Depth)
		if int(n.Depth) > s.MaxDepth {
			s.MaxDepth = int(n.Depth)
		}
	})
	if s.Leaves > 0 {
		s.AvgDepth = float64(s.SumDepth) / float64(s.Leaves)
	}
	s.InternalMax = s.MaxDepth
	return s
}
