package apclassifier

import (
	"math/rand"
	"sort"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// mustApply applies one rule-delta batch, failing the test on error.
func mustApply(t testing.TB, c *Classifier, deltas ...RuleDelta) {
	t.Helper()
	if err := c.ApplyRuleDeltas(deltas); err != nil {
		t.Fatal(err)
	}
}

// behaviorMatchesOracle compares the two-stage AP Classifier pipeline with
// the direct rule-table simulator on random traffic — the end-to-end
// correctness property of the whole system.
func behaviorMatchesOracle(t *testing.T, ds *netgen.Dataset, probes int, seed int64) {
	t.Helper()
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	delivered := 0
	for i := 0; i < probes; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		pkt := ds.PacketFromFields(f)

		want := ds.Simulate(ingress, f)
		got := c.Behavior(ingress, pkt)

		wd := append([]string(nil), want.Delivered...)
		var gd []string
		for _, d := range got.Deliveries {
			gd = append(gd, d.Host)
		}
		sort.Strings(wd)
		sort.Strings(gd)
		if len(wd) != len(gd) {
			t.Fatalf("probe %d (%+v from box %d): delivered %v, oracle %v\nbehavior: %v",
				i, f, ingress, gd, wd, got)
		}
		for j := range wd {
			if wd[j] != gd[j] {
				t.Fatalf("probe %d: delivered %v, oracle %v", i, gd, wd)
			}
		}
		if len(wd) > 0 {
			delivered++
		}
		// Drop boxes must match as sets too.
		wantDrops := map[int]bool{}
		for _, b := range want.DropBoxes {
			wantDrops[b] = true
		}
		gotDrops := map[int]bool{}
		for _, d := range got.Drops {
			gotDrops[d.Box] = true
		}
		if len(wantDrops) != len(gotDrops) {
			t.Fatalf("probe %d: drop boxes %v vs oracle %v (%v)", i, gotDrops, wantDrops, got)
		}
		for b := range wantDrops {
			if !gotDrops[b] {
				t.Fatalf("probe %d: oracle drops at %d, classifier does not", i, b)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("test traffic never delivered — not exercising forwarding")
	}
}

func TestEndToEndInternet2(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 5, RuleScale: 0.02})
	behaviorMatchesOracle(t, ds, 800, 5)
}

func TestEndToEndStanford(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 6, RuleScale: 0.005})
	behaviorMatchesOracle(t, ds, 400, 6)
}

func TestEndToEndSurvivesReconstruction(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 8, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	check := func() {
		for i := 0; i < 150; i++ {
			f := ds.RandomFields(rng)
			ingress := rng.Intn(len(ds.Boxes))
			want := ds.Simulate(ingress, f)
			got := c.Behavior(ingress, ds.PacketFromFields(f))
			if (len(want.Delivered) > 0) != got.Delivered("") {
				t.Fatalf("delivery mismatch after reconstruct: %+v", f)
			}
		}
	}
	check()
	c.Reconstruct(false)
	check()
	c.Reconstruct(true)
	check()
}

func TestRuleLevelUpdates(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 9, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))

	// Install a brand-new, previously unrouted prefix on every box toward
	// a chosen edge port, then verify delivery follows the rules.
	target := ds.Hosts[rng.Intn(len(ds.Hosts))]
	newPrefix := rule.P(0xF0000000, 12) // 240/12 is outside generator bases
	for b := range ds.Boxes {
		if b == target.Box {
			mustApply(t, c, RuleDelta{Op: OpAddFwdRule, Box: b, Rule: rule.FwdRule{Prefix: newPrefix, Port: target.Port}})
		}
	}
	// Boxes other than target have no route to 240/12, so inject a route
	// via the topology: simplest correctness check is from the target box.
	f := rule.Fields{Dst: 0xF0000001}
	want := ds.Simulate(target.Box, f)
	got := c.Behavior(target.Box, ds.PacketFromFields(f))
	if len(want.Delivered) != 1 || want.Delivered[0] != target.Name {
		t.Fatalf("oracle sanity: %+v", want)
	}
	if !got.Delivered(target.Name) {
		t.Fatalf("classifier missed the new rule: %v", got)
	}

	// Remove it again: the packet must now drop, per both oracle and
	// classifier.
	mustApply(t, c, RuleDelta{Op: OpRemoveFwdRule, Box: target.Box, Prefix: newPrefix})
	want = ds.Simulate(target.Box, f)
	got = c.Behavior(target.Box, ds.PacketFromFields(f))
	if len(want.Delivered) != 0 || got.Delivered("") {
		t.Fatalf("rule removal not reflected: oracle %v classifier %v", want, got)
	}

	// Broad consistency sweep after the churn.
	for i := 0; i < 200; i++ {
		fl := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		w := ds.Simulate(ingress, fl)
		g := c.Behavior(ingress, ds.PacketFromFields(fl))
		if (len(w.Delivered) > 0) != g.Delivered("") {
			t.Fatalf("sweep %d: delivery mismatch for %+v", i, fl)
		}
	}
}

func TestACLLevelUpdates(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 12, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))

	// Find a delivered flow and its delivery port.
	var f rule.Fields
	var dbox, dport int
	for {
		f = ds.RandomFields(rng)
		b := c.Behavior(0, ds.PacketFromFields(f))
		if len(b.Deliveries) == 1 {
			dbox, dport = b.Deliveries[0].Box, b.Deliveries[0].Port
			break
		}
	}

	// Installing a deny-all egress ACL on the delivery port must drop it
	// (both per classifier and per oracle).
	denyAll := &rule.ACL{Default: rule.Deny}
	mustApply(t, c, RuleDelta{Op: OpSetPortACL, Box: dbox, Port: dport, ACL: denyAll})
	if c.Behavior(0, ds.PacketFromFields(f)).Delivered("") {
		t.Fatal("deny-all egress ACL not applied")
	}
	if got := ds.Simulate(0, f); len(got.Delivered) != 0 {
		t.Fatal("dataset not updated alongside")
	}

	// Replace with a permit-all ACL: flow restored.
	mustApply(t, c, RuleDelta{Op: OpSetPortACL, Box: dbox, Port: dport, ACL: &rule.ACL{Default: rule.Permit}})
	if !c.Behavior(0, ds.PacketFromFields(f)).Delivered("") {
		t.Fatal("permit-all egress ACL should restore delivery")
	}

	// Remove entirely: still delivered.
	mustApply(t, c, RuleDelta{Op: OpSetPortACL, Box: dbox, Port: dport})
	if !c.Behavior(0, ds.PacketFromFields(f)).Delivered("") {
		t.Fatal("removing the ACL should keep delivery")
	}

	// Ingress ACL on the ingress box drops everything entering there.
	mustApply(t, c, RuleDelta{Op: OpSetInACL, Box: 0, ACL: denyAll})
	b := c.Behavior(0, ds.PacketFromFields(f))
	if b.Delivered("") {
		t.Fatal("deny-all ingress ACL not applied")
	}
	mustApply(t, c, RuleDelta{Op: OpSetInACL, Box: 0})
	if !c.Behavior(0, ds.PacketFromFields(f)).Delivered("") {
		t.Fatal("removing ingress ACL should restore delivery")
	}

	// After the churn, a reconstruction keeps everything consistent.
	c.Reconstruct(false)
	for i := 0; i < 200; i++ {
		fl := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		w := ds.Simulate(ing, fl)
		g := c.Behavior(ing, ds.PacketFromFields(fl))
		if (len(w.Delivered) > 0) != g.Delivered("") {
			t.Fatalf("sweep %d: mismatch after ACL churn + reconstruct", i)
		}
	}
}

func TestStatsAccessors(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 10, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPredicates() == 0 || c.NumAtoms() == 0 {
		t.Fatal("stats must be positive")
	}
	if c.AverageDepth() <= 0 {
		t.Fatal("average depth must be positive")
	}
	if c.MemBytes() <= 0 {
		t.Fatal("memory estimate must be positive")
	}
	if c.NumAtoms() > 1<<uint(16) {
		t.Fatal("atom explosion")
	}
}

// TestNewLeavesLittleScratch bounds what New leaves in the DD beyond its
// live nodes: the node store's slot capacity, freed slots included, may
// be at most twice the live footprint. The FIB conversion makes no
// scratch, so what GC freed is the ACL, atom and tree work alone; the
// shadow-walk conversion it replaced left 2.9× on Internet2 ×0.1 and
// 8.4× on Stanford ×0.05.
func TestNewLeavesLittleScratch(t *testing.T) {
	fat, err := netgen.FatTreePreset("small")
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*netgen.Dataset{
		"internet2-x0.1": netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}),
		"stanford-x0.05": netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}),
		"fattree-small":  netgen.FatTree(fat),
	} {
		c, err := New(ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := c.Manager.DD()
		ratio := float64(d.MemBytes()) / float64(d.LiveMemBytes())
		t.Logf("%s: MemBytes %d, LiveMemBytes %d (%.2f×)", name, d.MemBytes(), d.LiveMemBytes(), ratio)
		if ratio > 2 {
			t.Errorf("%s: MemBytes %d is %.2f× LiveMemBytes %d, want ≤ 2×", name, d.MemBytes(), ratio, d.LiveMemBytes())
		}
	}
}

func TestNewRejectsRandomMethod(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01})
	if _, err := New(ds, Options{Method: MethodRandom}); err == nil {
		t.Fatal("MethodRandom must be rejected")
	}
}
