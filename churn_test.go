package apclassifier

import (
	"math/rand"
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// checkLeavesHoldProbes probes the published epoch with boundary and
// random headers: each probe's leaf atom must hold the probe, and the
// batched descent must land every probe on the leaf single-packet
// Classify gives it — the per-epoch guard that a delta publish left the
// tree's leaves a partition its searches agree on.
func checkLeavesHoldProbes(t *testing.T, c *Classifier, ds *netgen.Dataset, rng *rand.Rand, batch int) {
	t.Helper()
	s := c.Manager.Snapshot()
	probes := boundaryFields(ds, rng, 1)
	for i := 0; i < 32; i++ {
		probes = append(probes, ds.RandomFields(rng))
	}
	pkts := make([][]byte, len(probes))
	single := make([]*aptree.Node, len(probes))
	for i, fl := range probes {
		pkts[i] = ds.PacketFromFields(fl)
		single[i] = s.ClassifyUncounted(pkts[i])
		if !s.View().EvalBits(single[i].BDD, pkts[i]) {
			t.Fatalf("batch %d probe %d: leaf atom %d does not hold the probe",
				batch, i, single[i].AtomID)
		}
	}
	batched := make([]*aptree.Node, len(pkts))
	s.ClassifyBatchWith(&aptree.BatchScratch{}, pkts, batched)
	for i := range pkts {
		if batched[i] != single[i] {
			t.Fatalf("batch %d probe %d: batched atom %d != single atom %d",
				batch, i, batched[i].AtomID, single[i].AtomID)
		}
	}
}

// randomChurnACL builds a small ACL around a random destination prefix —
// enough structure to exercise the ACL arms of the delta pipeline without
// denying everything. Destination-only matches keep it compilable on the
// dst-only layouts (internet2, multitenant) as well as the five-tuple one.
func randomChurnACL(rng *rand.Rand) *rule.ACL {
	m := rule.MatchAll()
	m.Dst = rule.P(rng.Uint32(), 1+rng.Intn(8))
	return &rule.ACL{
		Rules:   []rule.ACLRule{{Match: m, Action: rule.Deny}},
		Default: rule.Permit,
	}
}

// churnChild derives a more-specific child of an existing rule in the
// box's table — the FIB churn idiom every churn experiment and test uses.
// ok is false when the box has no splittable rule.
func churnChild(tbl *rule.FwdTable, rng *rand.Rand) (rule.FwdRule, bool) {
	if len(tbl.Rules) == 0 {
		return rule.FwdRule{}, false
	}
	for try := 0; try < 16; try++ {
		parent := tbl.Rules[rng.Intn(len(tbl.Rules))]
		if parent.Prefix.Length >= 32 {
			continue
		}
		length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
		return rule.FwdRule{
			Prefix: rule.P(parent.Prefix.Value|rng.Uint32()&^uint32(0xFFFFFFFF<<uint(32-parent.Prefix.Length)), length),
			Port:   parent.Port,
		}, true
	}
	return rule.FwdRule{}, false
}

// TestChurnDeltasMatchFreshBuild is the churn-equivalence differential
// satellite: on every netgen dataset it drives a live classifier through
// randomized interleaved delta batches — forwarding adds and removes,
// port and ingress ACL installs and clears — via the batched
// ApplyRuleDeltas pipeline (cone-scoped predicate recomputation plus
// leaf-local atom split/merge), then builds a second classifier cold from
// the mutated dataset and requires the two to be behaviorally
// indistinguishable on boundary and random headers. The incrementally
// maintained tree must equal the from-scratch refinement, and both must
// agree with the rule-table simulator on deliveries. The live tree's leaf
// partition is audited after every batch.
func TestChurnDeltasMatchFreshBuild(t *testing.T) {
	for name, ds := range diffDatasets() {
		t.Run(name, func(t *testing.T) {
			c, err := New(ds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(46))
			var installed []RuleDelta // synthetic adds, replayed as removes

			for batch := 0; batch < 12; batch++ {
				n := 1 + rng.Intn(4)
				deltas := make([]RuleDelta, 0, n)
				for k := 0; k < n; k++ {
					box := rng.Intn(len(ds.Boxes))
					spec := &ds.Boxes[box]
					switch op := rng.Intn(6); {
					case op <= 2: // bias toward FIB adds: the split-heavy path
						if r, ok := churnChild(&spec.Fwd, rng); ok {
							deltas = append(deltas, RuleDelta{Op: OpAddFwdRule, Box: box, Rule: r})
							installed = append(installed, RuleDelta{Op: OpRemoveFwdRule, Box: box, Prefix: r.Prefix})
						}
					case op == 3: // FIB removes: the merge-heavy path
						if len(installed) > 0 {
							j := rng.Intn(len(installed))
							deltas = append(deltas, installed[j])
							installed = append(installed[:j], installed[j+1:]...)
						} else if len(spec.Fwd.Rules) > 0 {
							p := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))].Prefix
							deltas = append(deltas, RuleDelta{Op: OpRemoveFwdRule, Box: box, Prefix: p})
						}
					case op == 4:
						var acl *rule.ACL
						if rng.Intn(3) > 0 {
							acl = randomChurnACL(rng)
						}
						deltas = append(deltas, RuleDelta{Op: OpSetPortACL, Box: box, Port: rng.Intn(spec.NumPorts), ACL: acl})
					default:
						var acl *rule.ACL
						if rng.Intn(3) > 0 {
							acl = randomChurnACL(rng)
						}
						deltas = append(deltas, RuleDelta{Op: OpSetInACL, Box: box, ACL: acl})
					}
				}
				if err := c.ApplyRuleDeltas(deltas); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if err := c.Manager.Tree().CheckLeafPartition(); err != nil {
					t.Fatalf("batch %d broke the leaf partition: %v", batch, err)
				}
				// Probe every published epoch, so a bad publish is caught
				// at the batch that introduced it, not after all twelve.
				checkLeavesHoldProbes(t, c, ds, rng, batch)
			}

			// Cold rebuild from the mutated dataset: the full refinement the
			// incremental engine must have tracked exactly.
			fresh, err := New(ds, Options{})
			if err != nil {
				t.Fatal(err)
			}

			probes := boundaryFields(ds, rng, 3)
			for i := 0; i < 200; i++ {
				probes = append(probes, ds.RandomFields(rng))
			}
			for i, f := range probes {
				pkt := ds.PacketFromFields(f)
				ingress := rng.Intn(len(ds.Boxes))
				bl := c.Behavior(ingress, pkt)
				bf := fresh.Behavior(ingress, pkt)
				if bl.String() != bf.String() {
					t.Fatalf("probe %d from box %d:\n churned %s\n fresh   %s", i, ingress, bl, bf)
				}
				want := ds.Simulate(ingress, f)
				var got []string
				for _, del := range bl.Deliveries {
					got = append(got, del.Host)
				}
				if !hostsEqual(sortedHosts(want.Delivered), sortedHosts(got)) {
					t.Fatalf("probe %d from box %d: oracle delivers %v, churned walk delivers %v",
						i, ingress, want.Delivered, got)
				}
			}
		})
	}
}
