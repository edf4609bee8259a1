package apclassifier

import (
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
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

func TestEnvAccessor(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 18, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := c.env
	if env.Source == nil {
		t.Fatal("Env must be fully wired")
	}
	pkt := ds.PacketFromFields(rule.Fields{Dst: 0x0A000001})
	leaf, _ := env.Source.Classify(pkt)
	if leaf == nil || !leaf.IsLeaf() {
		t.Fatal("Env.Classify broken")
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
