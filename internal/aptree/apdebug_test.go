//go:build apdebug

// Debug-tagged wrappers: with -tags apdebug every Build and ReplacePredicate
// already self-checks the leaf partition via debugCheckPartition, and every
// ReplacePredicate the updated predicate's membership bits via
// debugCheckMember; these tests drive construction, live updates and
// reconstruction through that path and call CheckLeafPartition directly so
// failures surface as test errors with context.
package aptree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

func TestApdebugPartitionAllMethods(t *testing.T) {
	if !Debug {
		t.Fatal("apdebug build tag set but Debug is false")
	}
	for _, method := range []Method{MethodOrder, MethodRandom, MethodQuick, MethodOAPT} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := bdd.New(16)
			preds := randomPrefixPreds(d, 16, 16, rng)
			tree := Build(buildInput(d, preds, rng), method)
			if err := tree.CheckLeafPartition(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestApdebugPartitionSurvivesLiveUpdates(t *testing.T) {
	m := NewManager(16, MethodQuick)
	rng := rand.New(rand.NewSource(13))
	var ids []int32
	for i := 0; i < 12; i++ {
		length := 1 + rng.Intn(8)
		bits := uint64(rng.Uint32()) >> 16
		id := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, length, 16)
		})
		ids = append(ids, id)
	}
	if err := m.Tree().CheckLeafPartition(); err != nil {
		t.Fatal(err)
	}
	m.RemovePredicate(ids[3])
	m.Reconstruct(false)
	if err := m.Tree().CheckLeafPartition(); err != nil {
		t.Fatalf("after reconstruct: %v", err)
	}
	if err := m.Tree().Validate(m.LiveIDs()); err != nil {
		t.Fatalf("after reconstruct: %v", err)
	}
}

// TestApdebugRestoreRejectsWrongMembership flips one membership bit of an
// otherwise well-formed restored tree: leaf 0 lies inside p, but its bit
// for p is clear. The structure checks RestoreTree runs in every build
// cannot see that; the apdebug build's Tree.Validate must reject it.
func TestApdebugRestoreRejectsWrongMembership(t *testing.T) {
	d := bdd.New(8)
	p := d.Retain(d.FromPrefix(0, 0x80, 1, 8))
	np := d.Retain(d.Not(p))
	leaf := func(atom int32, ref bdd.Ref, inP bool) *Node {
		mb := predicate.NewBitset(1)
		mb.Set(0, inP)
		return &Node{Pred: -1, AtomID: atom, BDD: ref, Member: mb}
	}
	if _, err := RestoreTree(d, &Node{Pred: 0, T: leaf(0, p, true), F: leaf(1, np, false)}, []bdd.Ref{p}, 2); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if _, err := RestoreTree(d, &Node{Pred: 0, T: leaf(0, p, false), F: leaf(1, np, false)}, []bdd.Ref{p}, 2); err == nil {
		t.Fatal("RestoreTree accepted a leaf whose membership bit contradicts its predicate")
	}
}

// TestApdebugReplaceRejectsShortRegion passes ReplacePredicate a region
// that misses part of old ⊕ new: predicate 0 moves from the top half of
// the header space to the bottom half, but the region names only the
// bottom half. The leaf in the top half keeps its stale bit, the partition
// stays intact, and only the membership check can see the fault.
func TestApdebugReplaceRejectsShortRegion(t *testing.T) {
	d := bdd.New(8)
	top := d.Retain(d.FromPrefix(0, 0x80, 1, 8))
	bottom := d.Retain(d.FromPrefix(0, 0x00, 1, 8))
	tree := Build(Input{D: d, Atoms: predicate.Compute(d, nil)}, MethodOrder)
	tree = tree.ReplacePredicate(0, top, top)
	if nt := tree.ReplacePredicate(0, bottom, d.Xor(top, bottom)); nt.Validate([]int32{0}) != nil {
		t.Fatal("an exact region must leave the tree valid")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "membership violation") {
			t.Fatalf("short region: recovered %q, want the membership check's panic", msg)
		}
	}()
	tree.ReplacePredicate(0, bottom, bottom)
}
