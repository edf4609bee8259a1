package apclassifier

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/predicate"
)

// churnedClassifier builds Internet2 at cfg and applies the first steps of
// ruleDeltaProgram to it, returning the classifier and the program's final
// tables.
func churnedClassifier(t testing.TB, cfg netgen.Config, steps int) (*Classifier, *netgen.Dataset) {
	t.Helper()
	c, err := New(netgen.Internet2Like(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, final := ruleDeltaProgram(cfg, 7, steps)
	for _, batch := range prog {
		mustApply(t, c, batch...)
	}
	return c, final
}

// memberKey spells out an atom's membership in the live predicates.
func memberKey(m predicate.Bitset, live []int32) string {
	key := make([]byte, len(live))
	for i, id := range live {
		if m.Get(int(id)) {
			key[i] = 1
		}
	}
	return string(key)
}

// sameNodes requires two trees to be equal node for node: the same
// predicate at every internal node, and the same atom ID, ref, depth and
// membership vector at every leaf.
func sameNodes(got, want *aptree.Node) error {
	switch {
	case got.Pred != want.Pred || got.Depth != want.Depth:
		return fmt.Errorf("node at depth %d tests predicate %d, the cold build's (depth %d) tests %d", got.Depth, got.Pred, want.Depth, want.Pred)
	case got.IsLeaf():
		if got.AtomID != want.AtomID || got.BDD != want.BDD || !slices.Equal(got.Member, want.Member) {
			return fmt.Errorf("leaf of atom %d (ref %d) differs from the cold build's atom %d (ref %d)", got.AtomID, got.BDD, want.AtomID, want.BDD)
		}
		return nil
	}
	if err := sameNodes(got.T, want.T); err != nil {
		return err
	}
	return sameNodes(got.F, want.F)
}

// TestRebuildMatchesRefinement holds Reconstruct, which sorts the live
// tree's leaves instead of computing atoms, to the rebuild that refined
// the live predicates from scratch. After an unweighted and then a
// weighted rebuild, the leaf of atom i holds predicate.ComputeMapped's
// atom i over the live IDs in the rebuilt DD, ref for ref and in every
// live membership bit, and the tree is node for node the one aptree.Build
// makes from those atoms: uniform, or weighted by the visits the old
// tree's leaf of the same membership counted (1 if none). Equal leaf sets
// make the tree semantically equal to that cold build too. It runs on
// fresh builds, after rebuildChurnSteps rule deltas, and on a classifier
// restored from a checkpoint, whose leaves the rebuild reads as decoded.
func TestRebuildMatchesRefinement(t *testing.T) {
	built := func(gen func() *netgen.Dataset) func(t *testing.T) *Classifier {
		return func(t *testing.T) *Classifier {
			c, err := New(gen(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	sets := map[string]func(t *testing.T) *Classifier{
		"internet2-x0.1": built(func() *netgen.Dataset { return netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}) }),
		"stanford-x0.05": built(func() *netgen.Dataset { return netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}) }),
		"fattree-small":  built(func() *netgen.Dataset { return netgen.FatTree(netgen.FatTreeSmall) }),
		"multitenant":    built(func() *netgen.Dataset { return netgen.MultiTenantLike(4, 3, 43) }),
		"internet2-x0.2-churned": func(t *testing.T) *Classifier {
			c, _ := churnedClassifier(t, netgen.Config{Seed: 1, RuleScale: 0.2}, rebuildChurnSteps)
			return c
		},
		"internet2-x0.1-restored": func(t *testing.T) *Classifier {
			c, _ := churnedClassifier(t, netgen.Config{Seed: 1, RuleScale: 0.1}, min(200, rebuildChurnSteps))
			var buf bytes.Buffer
			if err := checkpoint.Encode(&buf, c.CheckpointSource()); err != nil {
				t.Fatal(err)
			}
			res, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := NewFromRestored(res)
			if err != nil {
				t.Fatal(err)
			}
			return rc
		},
	}
	for name, mk := range sets {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			rng := rand.New(rand.NewSource(3))
			for _, weighted := range []bool{false, true} {
				// Uniform headers visit the atoms unevenly, so a weighted
				// rebuild has a shape of its own. Nothing else classifies:
				// the tally is the tree's visit counters.
				live := c.Manager.LiveIDs()
				visits := map[string]uint64{}
				for range 2000 {
					leaf := c.Classify(c.Dataset.PacketFromFields(c.Dataset.RandomFields(rng)))
					visits[memberKey(leaf.Member, live)]++
				}

				c.Reconstruct(weighted)
				m := c.Manager
				tree, d := m.Tree(), m.DD()
				preds := make([]bdd.Ref, tree.NumPreds())
				for id := range preds {
					preds[id] = tree.Pred(int32(id))
				}
				in := aptree.Input{D: d, Preds: preds, Live: live}
				want := refinedAtoms(in)
				in.Atoms = want
				if tree.NumLeaves() != want.N() || tree.AtomIDBound() != int32(want.N()) {
					t.Fatalf("weighted=%v: %d leaves below atom ID %d, refinement has %d atoms", weighted, tree.NumLeaves(), tree.AtomIDBound(), want.N())
				}
				tree.Leaves(func(n *aptree.Node) {
					if n.BDD != want.List[n.AtomID] || memberKey(n.Member, live) != memberKey(want.Member[n.AtomID], live) {
						t.Fatalf("weighted=%v: leaf of atom %d is not the refinement's atom %d", weighted, n.AtomID, n.AtomID)
					}
				})
				if weighted {
					in.Weights = make([]float64, want.N())
					for i, mem := range want.Member {
						in.Weights[i] = float64(max(visits[memberKey(mem, live)], 1))
					}
				}
				if err := sameNodes(tree.Root(), aptree.Build(in, m.Method()).Root()); err != nil {
					t.Fatalf("weighted=%v: %v", weighted, err)
				}
			}
		})
	}
}

// TestRebuildWorkIsPinned pins what Reconstruct costs in exact work
// counts, as TestNewWorkIsPinned pins New. A rebuild with no concurrent
// update transfers the live predicates and the live tree's leaves into a
// fresh DD and builds from them: in the release build it runs no apply
// step, where refining the live predicates from scratch ran 563,044 on
// Internet2 ×0.1 and 1,639,437 on Stanford ×0.05. Its DD holds only what
// it transferred, so after the 3,000 deltas of ruleDeltaProgram on
// Internet2 ×0.2 it has exactly the live nodes of New on the program's
// final tables (37,513), where the refinement's intermediate results left
// 48,158. The apdebug build records its own counts.
func TestRebuildWorkIsPinned(t *testing.T) {
	for _, tc := range []struct {
		ds       *netgen.Dataset
		recorded uint64
	}{
		{netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}), rebuildApplyOpsInternet2},
		{netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}), rebuildApplyOpsStanford},
	} {
		c, err := New(tc.ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, weighted := range []bool{false, true} {
			c.Reconstruct(weighted)
			if ops := c.Manager.DD().Stats().Ops; ops != tc.recorded {
				t.Errorf("%s, weighted=%v: a rebuild ran %d apply ops, want %d", tc.ds.Name, weighted, ops, tc.recorded)
			}
		}
	}

	cfg := netgen.Config{Seed: 1, RuleScale: 0.2}
	c, final := churnedClassifier(t, cfg, rebuildChurnSteps)
	c.Reconstruct(false)
	cold, err := New(final, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Manager.DD().Size(), cold.Manager.DD().Size()
	t.Logf("after %d deltas: rebuilt DD %d live nodes, cold build %d", rebuildChurnSteps, got, want)
	if got != want+rebuildSanitizerNodes {
		t.Errorf("rebuilt DD holds %d live nodes, a cold build of the same tables %d (+%d sanitizer nodes)", got, want, rebuildSanitizerNodes)
	}
}
