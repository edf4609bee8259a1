package apclassifier

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// sortedIDs copies and sorts a predicate-ID slice for set comparison.
func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestCheckpointRestoreMatchesLive is the warm-restart differential
// satellite: on every netgen dataset it mutates a live classifier (so
// the checkpoint carries dead slots and post-build predicates), saves
// it through the managed directory, restores a second classifier from
// disk, and checks the two are behaviorally indistinguishable on
// boundary and random headers — same leaf atom, same membership bits,
// and an identical Behavior walk (deliveries, drops, rewrites). It then
// applies the same mutation to both and re-compares, proving the
// restored instance is a full peer, not a read-only replica.
func TestCheckpointRestoreMatchesLive(t *testing.T) {
	for name, ds := range diffDatasets() {
		t.Run(name, func(t *testing.T) {
			c, err := New(ds, Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Age the classifier: rule updates remove predicates and
			// add new ones, a reconstruction swaps the tree. The
			// checkpoint must capture this post-update epoch, not the
			// cold-build state.
			mustApply(t, c, RuleDelta{Op: OpAddFwdRule, Rule: rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0}})
			for b := range ds.Boxes {
				if len(ds.Boxes[b].Fwd.Rules) > 0 {
					mustApply(t, c, RuleDelta{Op: OpRemoveFwdRule, Box: b, Prefix: ds.Boxes[b].Fwd.Rules[0].Prefix})
					break
				}
			}
			deny := rule.MatchAll()
			deny.Dst = rule.P(0x80000000, 1)
			mustApply(t, c, RuleDelta{Op: OpSetInACL, Box: len(ds.Boxes) - 1, ACL: &rule.ACL{
				Rules:   []rule.ACLRule{{Match: deny, Action: rule.Deny}},
				Default: rule.Permit,
			}})
			c.Reconstruct(false)

			dir, err := checkpoint.Open(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			path, err := dir.Save(c.CheckpointSource())
			if err != nil {
				t.Fatal(err)
			}
			rc, err := RestoreDir(dir)
			if err != nil {
				t.Fatal(err)
			}

			if rc.Manager.Version() != c.Manager.Version() {
				t.Fatalf("restored epoch %d, live %d", rc.Manager.Version(), c.Manager.Version())
			}
			if rc.NumPredicates() != c.NumPredicates() || rc.NumAtoms() != c.NumAtoms() {
				t.Fatalf("restored %d preds / %d atoms, live %d / %d",
					rc.NumPredicates(), rc.NumAtoms(), c.NumPredicates(), c.NumAtoms())
			}
			liveIDs := c.Manager.LiveIDs()
			if got, want := sortedIDs(rc.Manager.LiveIDs()), sortedIDs(liveIDs); len(got) != len(want) {
				t.Fatalf("live ID sets differ in size: %d vs %d", len(got), len(want))
			} else {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("live ID sets differ: %v vs %v", got, want)
					}
				}
			}

			rng := rand.New(rand.NewSource(45))
			probes := boundaryFields(ds, rng, 3)
			for i := 0; i < 150; i++ {
				probes = append(probes, ds.RandomFields(rng))
			}
			compare := func(probes []rule.Fields, phase string) {
				t.Helper()
				for i, f := range probes {
					pkt := ds.PacketFromFields(f)
					ll := c.Classify(pkt)
					lr := rc.Classify(pkt)
					if ll.AtomID != lr.AtomID {
						t.Fatalf("%s probe %d: live atom %d, restored atom %d", phase, i, ll.AtomID, lr.AtomID)
					}
					for _, id := range liveIDs {
						if ll.Member.Get(int(id)) != lr.Member.Get(int(id)) {
							t.Fatalf("%s probe %d: membership bit %d differs after restore", phase, i, id)
						}
					}
					ingress := rng.Intn(len(ds.Boxes))
					bl := c.Behavior(ingress, pkt)
					br := rc.Behavior(ingress, pkt)
					if bl.String() != br.String() {
						t.Fatalf("%s probe %d from box %d:\n live     %s\n restored %s",
							phase, i, ingress, bl, br)
					}
				}
			}
			compare(probes, "restore")

			// The restored classifier must keep evolving in lockstep when
			// fed the same updates: a forwarding-rule change (exercising
			// the round-tripped rule tables) and a fresh ingress ACL.
			fr := rule.FwdRule{Prefix: rule.P(0xC0A80000, 16), Port: 0}
			mustApply(t, c, RuleDelta{Op: OpAddFwdRule, Rule: fr})
			mustApply(t, rc, RuleDelta{Op: OpAddFwdRule, Rule: fr})
			deny2 := rule.MatchAll()
			deny2.Dst = rule.P(0xC0000000, 2)
			acl := &rule.ACL{Rules: []rule.ACLRule{{Match: deny2, Action: rule.Deny}}, Default: rule.Permit}
			mustApply(t, c, RuleDelta{Op: OpSetInACL, ACL: acl})
			mustApply(t, rc, RuleDelta{Op: OpSetInACL, ACL: acl})
			liveIDs = c.Manager.LiveIDs()
			compare(probes[:40], "post-update")

			// The facade's single-file path restores the same state.
			rc2, err := RestoreFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rc2.NumPredicates() == 0 || rc2.NumAtoms() == 0 {
				t.Fatal("RestoreFile produced an empty classifier")
			}
		})
	}
}

// TestCheckpointRestoresDenyAllACL: an all-deny ACL converts to the empty
// predicate, which the facade registers like any other — a live slot
// holding bdd.False. A checkpoint taken in that state must restore (it
// used to be refused as "live predicate N has false BDD", so a running
// server kept replacing good checkpoints with unrestorable ones), answer
// like the live classifier, and keep taking updates on exactly those
// slots.
func TestCheckpointRestoresDenyAllACL(t *testing.T) {
	ds := diffDatasets()["internet2"]
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	denyAll := &rule.ACL{Default: rule.Deny}
	mustApply(t, c, RuleDelta{Op: OpSetInACL, ACL: denyAll}, RuleDelta{Op: OpSetPortACL, Box: 1, ACL: denyAll})

	dir, err := checkpoint.Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(c.CheckpointSource()); err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumPredicates() != c.NumPredicates() {
		t.Fatalf("restored %d predicates, live %d", rc.NumPredicates(), c.NumPredicates())
	}

	rng := rand.New(rand.NewSource(47))
	probes := boundaryFields(ds, rng, 3)
	for i := 0; i < 150; i++ {
		probes = append(probes, ds.RandomFields(rng))
	}
	same := func(phase string, a, b *Classifier) {
		t.Helper()
		inDenied, outDenied := false, false
		for i, f := range probes {
			pkt := ds.PacketFromFields(f)
			for ingress := range ds.Boxes {
				ba, bb := a.Behavior(ingress, pkt).String(), b.Behavior(ingress, pkt).String()
				if ba != bb {
					t.Fatalf("%s probe %d from box %d:\n %s\n %s", phase, i, ingress, ba, bb)
				}
				inDenied = inDenied || strings.Contains(ba, string(network.DropInACL))
				outDenied = outDenied || strings.Contains(ba, string(network.DropOutACL))
			}
		}
		if phase == "restore" && !(inDenied && outDenied) {
			t.Fatal("probes did not meet both deny-all ACLs: the regression is not exercised")
		}
	}
	same("restore", c, rc)

	// Replace one deny-all ACL and clear the other on the restored
	// classifier: both updates remove a live bdd.False slot.
	deny := rule.MatchAll()
	deny.Dst = rule.P(0x80000000, 1)
	mustApply(t, rc, RuleDelta{Op: OpSetInACL, ACL: &rule.ACL{Rules: []rule.ACLRule{{Match: deny, Action: rule.Deny}}, Default: rule.Permit}})
	mustApply(t, rc, RuleDelta{Op: OpSetPortACL, Box: 1})
	cold, err := New(rc.Dataset, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same("post-update", rc, cold)
}

// TestCheckpointResumesDeltaSeq is the firehose-idempotency satellite: the
// rule-delta sequence cursor rides in the checkpoint META, so a restored
// classifier keeps acknowledging (without re-applying) sequenced batches
// that were delivered before the save.
func TestCheckpointResumesDeltaSeq(t *testing.T) {
	ds := diffDatasets()["internet2"]
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	add := []RuleDelta{{Op: OpAddFwdRule, Box: 0, Rule: rule.FwdRule{Prefix: rule.P(0xF0000000, 8), Port: 0}}}
	if applied, err := c.ApplyRuleDeltasSeq(9, add); err != nil || !applied {
		t.Fatalf("seq 9: applied=%v err=%v", applied, err)
	}

	dir, err := checkpoint.Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(c.CheckpointSource()); err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rc.DeltaSeq() != 9 {
		t.Fatalf("restored cursor %d, want 9", rc.DeltaSeq())
	}
	// Redelivery of an already-applied batch must be acknowledged only.
	if applied, err := rc.ApplyRuleDeltasSeq(9, add); err != nil || applied {
		t.Fatalf("replayed seq 9: applied=%v err=%v", applied, err)
	}
	// The next sequence number applies and advances the cursor.
	rm := []RuleDelta{{Op: OpRemoveFwdRule, Box: 0, Prefix: rule.P(0xF0000000, 8)}}
	if applied, err := rc.ApplyRuleDeltasSeq(10, rm); err != nil || !applied {
		t.Fatalf("seq 10: applied=%v err=%v", applied, err)
	}
	if rc.DeltaSeq() != 10 {
		t.Fatalf("cursor %d after seq 10, want 10", rc.DeltaSeq())
	}
}

// trieWalkEvents records a WalkTrie over g: a leaf as its port, Drop
// included, and a split as -2 minus its length.
func trieWalkEvents(tbl *rule.FwdTable, g rule.Prefix) []int {
	var ev []int
	rule.WalkTrie([]*rule.FwdTable{tbl}, g, func(winners []int) { ev = append(ev, winners[0]) }, func(length int) { ev = append(ev, -2-length) })
	return ev
}

// TestRuleTablesKeepInsertionOrder holds the indexed rule tables to the
// slice they replaced: the 300-delta program applied through
// ApplyRuleDeltas must leave every box's rules — and so the Dataset.Write
// bytes a checkpoint embeds — exactly as appends and a scan-and-compact
// remove leave them. A copyRuleTables copy taken halfway must keep its own
// bytes and a consistent index, walking each region's trie as an index
// freshly built from its rules does, while the live tables go on
// changing.
func TestRuleTablesKeepInsertionOrder(t *testing.T) {
	cfg := netgen.Config{Seed: 1, RuleScale: 0.02}
	c, err := New(netgen.Internet2Like(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := netgen.Internet2Like(cfg)
	rules := make([][]rule.FwdRule, len(want.Boxes))
	for b := range want.Boxes {
		rules[b] = slices.Clone(want.Boxes[b].Fwd.Rules)
	}
	write := func(ds *netgen.Dataset) []byte {
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	prog, _ := ruleDeltaProgram(cfg, 9, 300)
	var cp *netgen.Dataset
	var cpBytes []byte
	for i, batch := range prog {
		if i == len(prog)/2 {
			cp = copyRuleTables(c.Dataset)
			cpBytes = write(cp)
		}
		if err := c.ApplyRuleDeltas(batch); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		dl := batch[0]
		if dl.Op == OpAddFwdRule {
			rules[dl.Box] = append(rules[dl.Box], dl.Rule)
		} else {
			rules[dl.Box] = slices.DeleteFunc(rules[dl.Box], func(r rule.FwdRule) bool { return r.Prefix == dl.Prefix })
		}
	}
	for b := range want.Boxes {
		want.Boxes[b].Fwd = rule.FwdTable{Rules: rules[b]}
	}
	if !bytes.Equal(write(c.Dataset), write(want)) {
		t.Fatal("Dataset.Write bytes differ from the slice-maintained tables'")
	}
	if !bytes.Equal(write(cp), cpBytes) {
		t.Fatal("a copyRuleTables copy changed with the live tables")
	}
	rng := rand.New(rand.NewSource(10))
	for b := range cp.Boxes {
		tbl := &cp.Boxes[b].Fwd
		if err := tbl.CheckIndex(); err != nil {
			t.Fatalf("box %d copy: %v", b, err)
		}
		fresh := rule.FwdTable{Rules: slices.Clone(tbl.Rules)} // indexed on first use
		for k := 0; k < 200; k++ {
			r := tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix
			region := rule.P(r.Value|rng.Uint32()&0xFF, min(32, r.Length+rng.Intn(9)))
			if got, want := trieWalkEvents(tbl, region), trieWalkEvents(&fresh, region); !slices.Equal(got, want) {
				t.Fatalf("box %d copy: trie walk of %v = %v, fresh index %v", b, region, got, want)
			}
		}
	}
}
