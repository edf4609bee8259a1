package apclassifier

import (
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

func TestNewRejectsInvalidDataset(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01})
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0, 0), Port: 999})
	if _, err := New(ds, Options{}); err == nil {
		t.Fatal("invalid dataset must be rejected")
	}
}

func TestNewRejectsLayoutWithoutDstIP(t *testing.T) {
	ds := &netgen.Dataset{
		Name:   "weird",
		Layout: header.NewLayout(header.Field{Name: "something", Width: 16}),
		Boxes:  []netgen.BoxSpec{{Name: "a", NumPorts: 1, PortACL: map[int]*rule.ACL{}}},
	}
	if _, err := New(ds, Options{}); err == nil {
		t.Fatal("layout without dstIP must be rejected")
	}
}

func TestTreeInputReflectsDeletes(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 17, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A predicate wired to no box, so removing it leaves nothing dangling.
	id := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0x0A000000, 8, ds.Layout.Bits()) })
	before := len(c.TreeInput().Live)
	c.Manager.RemovePredicate(id)
	after := len(c.TreeInput().Live)
	if after != before-1 {
		t.Fatalf("TreeInput live count %d -> %d, want -1", before, after)
	}
}

// TestSnapshotCarriesWiring checks that New publishes its first epoch
// with the stage-2 wiring: every box of the topology, every port, and a
// forwarding predicate on at least one port.
func TestSnapshotCarriesWiring(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 18, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := network.WiringOf(c.Manager.Snapshot())
	if w == nil || w.NumBoxes() != len(c.Net.Boxes) {
		t.Fatal("the published epoch must carry a wiring for every box")
	}
	forwarding := 0
	for b := range c.Net.Boxes {
		if w.NumPorts(b) != len(c.Net.Boxes[b].Ports) {
			t.Fatalf("box %d: wiring has %d ports, topology %d", b, w.NumPorts(b), len(c.Net.Boxes[b].Ports))
		}
		for p := 0; p < w.NumPorts(b); p++ {
			if w.Fwd(b, p) != network.NoPred {
				forwarding++
			}
		}
	}
	if forwarding == 0 {
		t.Fatal("no port forwards anything")
	}
	pkt := ds.PacketFromFields(rule.Fields{Dst: 0x0A000001})
	if leaf := c.Classify(pkt); leaf == nil || !leaf.IsLeaf() {
		t.Fatal("Classify broken")
	}
}

func TestBehaviorWithWalkerMatchesPlain(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 19, RuleScale: 0.003})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewWalker()
	for i := 0; i < 100; i++ {
		f := rule.Fields{Dst: 0x0A000000 | uint32(i)<<8, Src: uint32(i) * 777}
		pkt := ds.PacketFromFields(f)
		a := c.Behavior(i%len(ds.Boxes), pkt)
		b := c.BehaviorWith(w, i%len(ds.Boxes), pkt)
		if a.String() != b.String() {
			t.Fatalf("walker and plain behavior differ: %q vs %q", a.String(), b.String())
		}
	}
}
