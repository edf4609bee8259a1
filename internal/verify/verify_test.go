package verify

import (
	"math/rand"
	"testing"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

func compile(t *testing.T, ds *netgen.Dataset) *apclassifier.Classifier {
	t.Helper()
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// apply applies one rule-delta batch, reporting a refusal with t.Error so
// churn goroutines may call it.
func apply(t *testing.T, c *apclassifier.Classifier, deltas ...apclassifier.RuleDelta) {
	t.Helper()
	if err := c.ApplyRuleDeltas(deltas); err != nil {
		t.Error(err)
	}
}

func TestReachSetMatchesSampledBehavior(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 51, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	rng := rand.New(rand.NewSource(51))

	host := ds.Hosts[3]
	reach := a.ReachSet(0, host.Name)
	// Every sampled packet agrees: in the set ⇔ delivered to the host.
	for i := 0; i < 500; i++ {
		f := ds.RandomFields(rng)
		pkt := ds.PacketFromFields(f)
		inSet := reach.Contains(pkt)
		delivered := c.Behavior(0, pkt).Delivered(host.Name)
		if inSet != delivered {
			t.Fatalf("probe %d: ReachSet=%v but behavior delivered=%v", i, inSet, delivered)
		}
	}
}

func TestReachSetsOfDistinctHostsAreDisjoint(t *testing.T) {
	// Unicast LPM: a packet reaches at most one host, so reach sets from
	// one ingress must be pairwise disjoint.
	ds := netgen.Internet2Like(netgen.Config{Seed: 52, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	sets := make([]PacketSet, 0, 10)
	names := make([]string, 0, 10)
	for _, h := range ds.Hosts[:10] {
		names = append(names, h.Name)
		sets = append(sets, a.ReachSet(0, h.Name))
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !sets[i].Atoms().Intersect(sets[j].Atoms()).Empty() {
				t.Fatalf("reach sets of %s and %s overlap", names[i], names[j])
			}
		}
	}
}

func TestBlackholesComplementDeliveries(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 53, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	// From any ingress: every packet either reaches some host or hits a
	// blackhole (Internet2 has no ACLs, loops or dangling ports).
	union := a.Blackholes(0).Atoms()
	for _, h := range ds.Hosts {
		union = union.Union(a.ReachSet(0, h.Name).Atoms())
	}
	if !union.Equal(liveAtoms(a.view)) {
		t.Fatalf("deliveries ∪ blackholes ≠ header space: %v vs %v", union, liveAtoms(a.view))
	}
}

func TestNoLoopsInGeneratedNetwork(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 54, RuleScale: 0.01})
	c := compile(t, ds)
	if loops := New(c).Loops(); len(loops) != 0 {
		t.Fatalf("shortest-path FIBs must be loop-free, found %d", len(loops))
	}
}

func TestLoopsDetectInjectedLoop(t *testing.T) {
	// Hand-build a two-box network that loops a prefix between the boxes.
	ds := &netgen.Dataset{Name: "loopy", Layout: netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout}
	ds.Boxes = []netgen.BoxSpec{
		{Name: "a", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
		{Name: "b", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
	}
	ds.Links = []netgen.Link{{A: 0, PA: 1, B: 1, PB: 1}}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "h1"}, {Box: 1, Port: 0, Name: "h2"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1}) // a: 10/8 -> b
	ds.Boxes[1].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1}) // b: 10/8 -> a (loop!)
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0xC0000000, 8), Port: 0}) // some delivered traffic
	c := compile(t, ds)
	a := New(c)
	loops := a.Loops()
	if len(loops) == 0 {
		t.Fatal("injected loop not detected")
	}
	for _, l := range loops {
		if l.Example == nil {
			t.Fatal("loop without example header")
		}
	}
	// The per-ingress LoopSet agrees with the sweep.
	fromSweep := 0
	for _, l := range loops {
		if l.Ingress == 0 {
			fromSweep++
		}
	}
	if got := a.LoopSet(0).NumAtoms(); got != fromSweep {
		t.Fatalf("LoopSet(0) has %d atoms, sweep found %d", got, fromSweep)
	}
}

func TestWaypointViolations(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 55, RuleScale: 0.003})
	c := compile(t, ds)
	a := New(c)
	bbra, bbrb := c.Net.BoxByName("bbra"), c.Net.BoxByName("bbrb")

	// Inter-zone delivery must traverse a backbone router: violations of
	// "bbra OR bbrb" must be empty for hosts on other zone routers.
	ingress := c.Net.BoxByName("zone00")
	for _, h := range ds.Hosts {
		if h.Box == ingress {
			continue
		}
		va := a.WaypointViolations(ingress, h.Name, bbra)
		vb := a.WaypointViolations(ingress, h.Name, bbrb)
		// Packets bypassing both backbones would violate the two-tier
		// topology; the intersection must be empty.
		if !va.Atoms().Intersect(vb.Atoms()).Empty() {
			t.Fatalf("traffic to %s bypasses both backbone routers", h.Name)
		}
	}
}

func TestIsolationAndCanReach(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 56, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	// Internet2 is a connected backbone: no pair of boxes is isolated.
	for i := 0; i < len(ds.Boxes); i++ {
		for j := 0; j < len(ds.Boxes); j++ {
			if i == j {
				continue
			}
			if a.Isolated(i, j) {
				t.Fatalf("boxes %d and %d wrongly isolated", i, j)
			}
		}
	}
	// CanReach is consistent with Isolated.
	if a.CanReach(0, 1).Empty() {
		t.Fatal("CanReach(0,1) empty but not isolated")
	}
}

func TestIsolationHoldsOnPartitionedNetwork(t *testing.T) {
	// Two disconnected islands must be mutually isolated.
	layout := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout
	ds := &netgen.Dataset{Name: "split", Layout: layout}
	ds.Boxes = []netgen.BoxSpec{
		{Name: "a", NumPorts: 1, PortACL: map[int]*rule.ACL{}},
		{Name: "b", NumPorts: 1, PortACL: map[int]*rule.ACL{}},
	}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "ha"}, {Box: 1, Port: 0, Name: "hb"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0})
	ds.Boxes[1].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0B000000, 8), Port: 0})
	c := compile(t, ds)
	a := New(c)
	if !a.Isolated(0, 1) || !a.Isolated(1, 0) {
		t.Fatal("disconnected boxes must be isolated")
	}
}

func TestReachabilityMatrix(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 57, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	m := a.ReachabilityMatrix()
	if len(m) != len(ds.Boxes) {
		t.Fatal("matrix size")
	}
	// Diagonal counts all atoms (everything "traverses" its ingress).
	for i := range m {
		if m[i][i] != a.NumAtoms() {
			t.Fatalf("diagonal [%d][%d] = %d, want %d", i, i, m[i][i], a.NumAtoms())
		}
	}
	// Connected backbone: every off-diagonal entry positive.
	for i := range m {
		for j := range m {
			if i != j && m[i][j] == 0 {
				t.Fatalf("no atoms from %d traverse %d in a connected backbone", i, j)
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 58, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	if got := a.Describe(PacketSet{}); got != "(empty)" {
		t.Fatalf("Describe(empty) = %q", got)
	}
	// Some edge ports own no prefixes at small scale; find a host that
	// actually receives traffic.
	for _, h := range ds.Hosts {
		set := a.ReachSet(0, h.Name)
		if set.Empty() {
			continue
		}
		s := a.Describe(set)
		if s == "" || s == "(empty)" {
			t.Fatalf("Describe = %q", s)
		}
		return
	}
	t.Fatal("no host receives any traffic")
}

func TestPacketSetCountAndFraction(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 60, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)
	// The whole atom universe covers the header space exactly.
	all := PacketSet{a: a, set: liveAtoms(a.view)}
	if got := all.Fraction(); got != 1 {
		t.Fatalf("Fraction(universe) = %v, want 1", got)
	}
	// Fractions of a partition into reach sets + blackholes sum to 1.
	total := a.Blackholes(0).Fraction()
	for _, h := range ds.Hosts {
		total += a.ReachSet(0, h.Name).Fraction()
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("partition fractions sum to %v", total)
	}
}

func TestAnalyzerRejectsMiddleboxes(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 59, RuleScale: 0.01})
	c := compile(t, ds)
	mb := apclassifier.RuleDelta{Op: apclassifier.OpSetMiddlebox, Box: 0, MB: &network.Middlebox{Name: "mb"}}
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{mb}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("middlebox networks must be rejected")
		}
	}()
	New(c)
}

// liveAtoms is the epoch's whole atom universe as a set.
func liveAtoms(v *aptree.AtomView) predicate.AtomSet {
	var b predicate.AtomSetBuilder
	v.Each(func(id int32) bool { b.Add(id); return true })
	return b.Set()
}
