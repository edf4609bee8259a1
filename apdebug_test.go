//go:build apdebug

package apclassifier

import (
	"math/rand"
	"strings"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// ruleDeltaApplyOps is TestRuleDeltaWorkIsLocal's exact apply-op count in
// this build: the sanitizers that check every tree update run their BDD
// operations in the live DD, so they count beside the delta engine's own
// 37,739.
const ruleDeltaApplyOps = 214726

// TestNewWorkIsPinned's exact apply-op counts for a build of Internet2
// ×0.1 and of Stanford ×0.05 in this build, the sanitizers' operations
// included.
const (
	newApplyOpsInternet2 = 29011
	newApplyOpsStanford  = 472674
)

// TestRebuildWorkIsPinned's counts in this build: the partition sanitizer
// that checks the rebuilt tree runs its BDD operations in the rebuild's
// DD, and its results stay there. This build re-derives every edited
// table after each rule batch (≈ 80 ms a step on Internet2 ×0.2), so the
// rebuild tests churn for 50 steps instead of 3,000.
const (
	rebuildApplyOpsInternet2 = 29042
	rebuildApplyOpsStanford  = 85824
	rebuildSanitizerNodes    = 13448
	rebuildChurnSteps        = 50
)

// TestApdebugDeltaPartition drives the delta pipeline with the leaf
// partition sanitizer armed: under -tags apdebug every AddPredicate and
// RemovePredicate self-checks inside the transaction, and this test
// additionally audits the published tree after each batch — the
// incrementally split/merged leaves must remain a disjoint, exhaustive
// partition of the header space, with membership labels matching the
// full refinement (Validate).
func TestApdebugDeltaPartition(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 52, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	var added []RuleDelta
	for batch := 0; batch < 8; batch++ {
		var deltas []RuleDelta
		for k := 0; k < 3; k++ {
			box := rng.Intn(len(ds.Boxes))
			tbl := &ds.Boxes[box].Fwd
			parent := tbl.Rules[rng.Intn(len(tbl.Rules))]
			if parent.Prefix.Length >= 32 {
				continue
			}
			length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
			r := rule.FwdRule{
				Prefix: rule.P(parent.Prefix.Value|rng.Uint32()&^uint32(0xFFFFFFFF<<uint(32-parent.Prefix.Length)), length),
				Port:   parent.Port,
			}
			deltas = append(deltas, RuleDelta{Op: OpAddFwdRule, Box: box, Rule: r})
			added = append(added, RuleDelta{Op: OpRemoveFwdRule, Box: box, Prefix: r.Prefix})
		}
		if len(added) > 2 && rng.Intn(2) == 0 {
			j := rng.Intn(len(added))
			deltas = append(deltas, added[j])
			added = append(added[:j], added[j+1:]...)
		}
		if err := c.ApplyRuleDeltas(deltas); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		tree := c.Manager.Tree()
		if err := tree.CheckLeafPartition(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := tree.Validate(c.Manager.LiveIDs()); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
}

// TestApdebugWiringCheck drives the assertion that replaced stage 2's
// per-hop liveness probe: every ID wired into the topology is live in the
// published epoch. ApplyRuleDeltas and restore keep that by construction
// (both run the check and stay silent); a removal that forgets to unwire
// its ID must trip it.
func TestApdebugWiringCheck(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 54, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, c, RuleDelta{Op: OpSetInACL, ACL: &rule.ACL{Default: rule.Deny}}) // a live bdd.False slot is fine
	mustApply(t, c, RuleDelta{Op: OpSetInACL})
	c.debugCheckWiring()

	var victim int32 = -1
	w := network.WiringOf(c.Manager.Snapshot())
	for p := 0; p < w.NumPorts(0) && victim < 0; p++ {
		victim = w.Fwd(0, p)
	}
	if victim < 0 {
		t.Fatal("box 0 forwards nowhere")
	}
	c.Manager.RemovePredicate(victim) // left dangling in the published wiring
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a port wired to a removed predicate must panic under apdebug")
		}
		if !strings.Contains(r.(string), "apdebug") || !strings.Contains(r.(string), "dead predicate") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.debugCheckWiring()
}

// TestApdebugRederiveCatchesStalePredicate drives the apdebug
// re-derivation: a rule whose output port is changed behind the
// classifier's back leaves the box's forwarding predicates stale, and the
// next batch that edits that box must panic at the whole-table
// re-derivation instead of publishing the stale epoch.
func TestApdebugRederiveCatchesStalePredicate(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 52, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := &ds.Boxes[1]
	longest := 0
	for i, r := range spec.Fwd.Rules {
		if r.Prefix.Length > spec.Fwd.Rules[longest].Prefix.Length {
			longest = i
		}
	}
	r := &spec.Fwd.Rules[longest]
	r.Port = (r.Port + 1) % spec.NumPorts
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "re-derivation") {
			t.Fatalf("a stale forwarding predicate was published (recovered %q)", msg)
		}
	}()
	err = c.ApplyRuleDeltas([]RuleDelta{{Op: OpAddFwdRule, Box: 1,
		Rule: rule.FwdRule{Prefix: rule.P(0xF0000000, 8), Port: rule.Drop}}})
	t.Fatalf("ApplyRuleDeltas returned %v instead of panicking", err)
}
