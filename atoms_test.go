package apclassifier

import (
	"fmt"
	"slices"
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// refinedAtoms is the oracle the joint-walk atoms are held to: AP
// Verifier's refinement over the input's live predicates in ascending ID
// order, in the input's DD.
func refinedAtoms(in aptree.Input) *predicate.Atoms {
	refs := make([]bdd.Ref, len(in.Live))
	ids := make([]int, len(in.Live))
	for i, id := range in.Live {
		refs[i], ids[i] = in.Preds[id], int(id)
	}
	return predicate.ComputeMapped(in.D, refs, ids, len(in.Preds))
}

// sameAtoms requires two atom sets to be equal in order, ref for ref, and
// in membership, bit for bit.
func sameAtoms(got, want *predicate.Atoms) error {
	if len(got.List) != len(want.List) {
		return fmt.Errorf("%d atoms, refinement has %d", len(got.List), len(want.List))
	}
	for i := range got.List {
		if got.List[i] != want.List[i] {
			return fmt.Errorf("atom %d is ref %d, refinement's is %d", i, got.List[i], want.List[i])
		}
		if !slices.Equal(got.Member[i], want.Member[i]) {
			return fmt.Errorf("atom %d has membership %x, refinement's is %x", i, got.Member[i], want.Member[i])
		}
	}
	return nil
}

// checkJointAtoms holds the atoms TreeInput computes to the refinement,
// and returns the oracle's.
func checkJointAtoms(t *testing.T, c *Classifier) (aptree.Input, *predicate.Atoms) {
	t.Helper()
	in := c.TreeInput()
	want := refinedAtoms(in)
	if err := sameAtoms(in.Atoms, want); err != nil {
		t.Fatal(err)
	}
	return in, want
}

// TestJointAtomsMatchRefinement builds each dataset and holds its atoms —
// from one joint walk of the forwarding tables, refined by the ACLs alone —
// to the refinement by every predicate, in order and membership: the ones
// TreeInput computes, and the ones New built its tree from, leaf by leaf.
// The full-scale datasets are skipped under -short.
func TestJointAtomsMatchRefinement(t *testing.T) {
	sets := map[string]func() *netgen.Dataset{
		"internet2-x0.1": func() *netgen.Dataset { return netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}) },
		"stanford-x0.05": func() *netgen.Dataset { return netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}) },
		"fattree-small":  func() *netgen.Dataset { return netgen.FatTree(netgen.FatTreeSmall) },
		"multitenant":    func() *netgen.Dataset { return netgen.MultiTenantLike(4, 3, 43) },
	}
	if !testing.Short() {
		sets["internet2-x1.0"] = func() *netgen.Dataset { return netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 1}) }
		sets["stanford-x0.1"] = func() *netgen.Dataset { return netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.1}) }
		sets["fattree-mid"] = func() *netgen.Dataset { return netgen.FatTree(netgen.FatTreeMid) }
	}
	for name, gen := range sets {
		t.Run(name, func(t *testing.T) {
			c, err := New(gen(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			in, want := checkJointAtoms(t, c)
			c.Manager.Tree().Leaves(func(n *aptree.Node) {
				if int(n.AtomID) >= len(want.List) || n.BDD != want.List[n.AtomID] {
					t.Fatalf("leaf of atom %d holds ref %d, not the refinement's atom", n.AtomID, n.BDD)
				}
				for _, id := range in.Live {
					if n.Member.Get(int(id)) != want.Member[n.AtomID].Get(int(id)) {
						t.Fatalf("leaf of atom %d disagrees with the refinement on predicate %d", n.AtomID, id)
					}
				}
			})
		})
	}
}

// TestTreeInputAfterEdits computes atoms after the wiring has moved away
// from New's numbering: a rule change that gives a port its first
// predicate (an ID above every ACL's), a default Drop route, a batch that
// removes a port's last rules and so its predicate, a new and a dropped
// port ACL, and a predicate added through the manager, which counts with
// the ACLs.
func TestTreeInputAfterEdits(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.02})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	box := &ds.Boxes[0]
	idle := -1
	for p := 0; p < box.NumPorts && idle < 0; p++ {
		if !slices.ContainsFunc(box.Fwd.Rules, func(r rule.FwdRule) bool { return r.Port == p }) {
			idle = p
		}
	}
	if idle < 0 {
		t.Fatal("box 0 sends packets to every port")
	}
	mustApply(t, c, RuleDelta{Op: OpAddFwdRule, Box: 0, Rule: rule.FwdRule{Prefix: rule.P(0xF0000000, 8), Port: idle}})
	mustApply(t, c, RuleDelta{Op: OpAddFwdRule, Box: 1, Rule: rule.FwdRule{Prefix: rule.P(0, 0), Port: rule.Drop}},
		RuleDelta{Op: OpAddFwdRule, Box: 1, Rule: rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0}})
	// Every rule of box 2's least-used port goes: its predicate dies.
	rules := map[int][]RuleDelta{}
	for _, r := range ds.Boxes[2].Fwd.Rules {
		if r.Port != rule.Drop {
			rules[r.Port] = append(rules[r.Port], RuleDelta{Op: OpRemoveFwdRule, Box: 2, Prefix: r.Prefix})
		}
	}
	least := -1
	for p, rm := range rules {
		if least < 0 || len(rm) < len(rules[least]) || len(rm) == len(rules[least]) && p < least {
			least = p
		}
	}
	live := c.NumPredicates()
	mustApply(t, c, rules[least]...)
	if c.NumPredicates() != live-1 {
		t.Fatalf("removing every rule of port %d left %d predicates, want %d", least, c.NumPredicates(), live-1)
	}
	m := rule.MatchAll()
	m.Dst = rule.P(0x0A000000, 9)
	acl := &rule.ACL{Rules: []rule.ACLRule{{Match: m, Action: rule.Deny}}, Default: rule.Permit}
	mustApply(t, c, RuleDelta{Op: OpSetPortACL, Box: 2, Port: 0, ACL: acl})
	c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0x0A800000, 9, d.NumVars()) })
	checkJointAtoms(t, c)
	mustApply(t, c, RuleDelta{Op: OpSetPortACL, Box: 2, Port: 0})
	checkJointAtoms(t, c)
}

// TestNewWorkIsPinned pins what New costs in exact work counts: the BDD
// apply steps of a whole build, counted by the DD, may not exceed the
// build's recorded count by more than 10%. The forwarding conversion and
// the joint walk run none, so the release build of Internet2 ×0.1, which
// has no ACL, runs none at all, where the refinement by every predicate
// ran 563,004. On Stanford ×0.05 what is left is the ACL conversion and
// the ACLs' refinement of the forwarding atoms: 386,919, against
// 1,642,685.
func TestNewWorkIsPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ds       *netgen.Dataset
		recorded uint64
	}{
		{"internet2-x0.1", netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}), newApplyOpsInternet2},
		{"stanford-x0.05", netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}), newApplyOpsStanford},
	} {
		c, err := New(tc.ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ops := c.Manager.DD().Stats().Ops
		t.Logf("%s: %d apply ops", tc.name, ops)
		if limit := tc.recorded * 11 / 10; ops > limit {
			t.Errorf("%s: %d apply ops, want ≤ %d (the recorded %d plus 10%%)", tc.name, ops, limit, tc.recorded)
		}
	}
}
