package hsa

import (
	"math/rand"
	"sort"
	"testing"

	"apclassifier"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
	"apclassifier/internal/verify"
)

func TestReachAllAgreesWithConcreteReach(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 71, RuleScale: 0.01})
	n := Compile(ds)
	rng := rand.New(rand.NewSource(71))
	for ingress := 0; ingress < 3; ingress++ {
		all := n.ReachAll(ingress, []Expr{All(ds.Layout.Bits())})
		for i := 0; i < 200; i++ {
			f := ds.RandomFields(rng)
			pkt := ds.PacketFromFields(f)
			concrete := n.Reach(ingress, pkt)
			pt := FromPacket(pkt, ds.Layout.Bits())
			for host, exprs := range all.ToHost {
				inSet := false
				for _, e := range exprs {
					if _, ok := e.Intersect(pt); ok {
						inSet = true
						break
					}
				}
				delivered := false
				for _, h := range concrete.Delivered {
					if h == host {
						delivered = true
					}
				}
				if inSet != delivered {
					t.Fatalf("ingress %d host %s: set-based %v vs concrete %v", ingress, host, inSet, delivered)
				}
			}
		}
	}
}

// TestReachAllEqualsAtomLevelReachability is the flagship cross-validation:
// two independent implementations — wildcard-expression propagation (HSA)
// and atomic-predicate analysis (AP Classifier + verify) — must compute
// exactly the same reachability sets, as canonical BDDs.
func TestReachAllEqualsAtomLevelReachability(t *testing.T) {
	for _, gen := range []func() *netgen.Dataset{
		func() *netgen.Dataset { return netgen.Internet2Like(netgen.Config{Seed: 72, RuleScale: 0.005}) },
		func() *netgen.Dataset { return netgen.StanfordLike(netgen.Config{Seed: 72, RuleScale: 0.002}) },
	} {
		ds := gen()
		c, err := apclassifier.New(ds, apclassifier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		an := verify.New(c)
		hn := Compile(ds)
		d := c.Manager.DD()

		for _, ingress := range []int{0, len(ds.Boxes) / 2} {
			all := hn.ReachAll(ingress, []Expr{All(ds.Layout.Bits())})
			// Every host's HSA set must equal the atom-level reach set.
			seen := map[string]bool{}
			for host, exprs := range all.ToHost {
				seen[host] = true
				hsaSet := bdd.False
				for _, e := range exprs {
					hsaSet = d.Or(hsaSet, d.FromTernary(e.String()))
				}
				atomSet := an.ReachSet(ingress, host).UnionRef(d)
				if hsaSet != atomSet {
					t.Fatalf("%s ingress %d host %s: HSA and atom-level reach sets differ "+
						"(HSA %.0f headers, atoms %.0f)", ds.Name, ingress, host,
						d.SatCount(hsaSet), d.SatCount(atomSet))
				}
			}
			// Hosts HSA never delivers to must have empty atom-level sets.
			for _, h := range ds.Hosts {
				if !seen[h.Name] && !an.ReachSet(ingress, h.Name).Empty() {
					t.Fatalf("%s: atom-level says %s reachable, HSA disagrees", ds.Name, h.Name)
				}
			}
		}
	}
}

func TestReachAllDetectsLoops(t *testing.T) {
	ds := &netgen.Dataset{Name: "loopy", Layout: netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout}
	ds.Boxes = []netgen.BoxSpec{
		{Name: "a", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
		{Name: "b", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
	}
	ds.Links = []netgen.Link{{A: 0, PA: 1, B: 1, PB: 1}}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "h1"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	ds.Boxes[1].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0xC0000000, 8), Port: 0})
	n := Compile(ds)
	res := n.ReachAll(0, []Expr{All(32)})
	if len(res.Loops) == 0 {
		t.Fatal("loop not detected by set propagation")
	}
	// The looping set is exactly 10/8.
	total := 0.0
	for _, e := range res.Loops {
		total += e.Count()
	}
	if total != float64(uint64(1)<<24) {
		t.Fatalf("looping header count = %v, want 2^24", total)
	}
	hosts := res.Hosts()
	if len(hosts) != 1 || hosts[0] != "h1" {
		t.Fatalf("delivered hosts = %v, want [h1]", hosts)
	}
}

func TestCountTo(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 73, RuleScale: 0.005})
	n := Compile(ds)
	all := n.ReachAll(0, []Expr{All(32)})
	totalDelivered := 0.0
	for _, h := range all.Hosts() {
		totalDelivered += all.CountTo(h)
	}
	totalDropped := 0.0
	for _, e := range all.Dropped {
		totalDropped += e.Count()
	}
	// Conservation: delivered + dropped (+ loops, none here) = 2^32.
	if got := totalDelivered + totalDropped; got != float64(uint64(1)<<32) {
		t.Fatalf("header-space not conserved: %v", got)
	}
	if len(all.Loops) != 0 {
		t.Fatal("unexpected loops")
	}
}

// Hosts lists the hosts an AllResult delivered to, sorted.
func (r *AllResult) Hosts() []string {
	out := make([]string, 0, len(r.ToHost))
	for h := range r.ToHost {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// CountTo sums the header counts delivered to one host. Because the
// delivered pieces for one host are pairwise disjoint (each piece came
// from a disjoint slice of the injected set), the sum is exact.
func (r *AllResult) CountTo(host string) float64 {
	total := 0.0
	for _, e := range r.ToHost[host] {
		total += e.Count()
	}
	return total
}
