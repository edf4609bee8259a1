package apclassifier

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// setMiddlebox attaches mb to box (nil detaches) through OpSetMiddlebox.
func setMiddlebox(t testing.TB, c *Classifier, box int, mb *network.Middlebox) {
	t.Helper()
	if err := c.ApplyRuleDeltas([]RuleDelta{{Op: OpSetMiddlebox, Box: box, MB: mb}}); err != nil {
		t.Fatal(err)
	}
}

// natFixture is the middlebox example's network: Internet2 ×0.05 (seed
// 9), two routed destinations a and b, and a match predicate for the
// unrouted virtual prefix 198.18.0.0/16, whose packet vip a NAT at chicago
// (box nat) will translate.
type natFixture struct {
	c        *Classifier
	nat      int
	match    int32
	a, b     uint32
	vip, dst []byte // a packet to the virtual prefix, and one to a
}

func newNATFixture(t *testing.T) *natFixture {
	ds := netgen.Internet2Like(netgen.Config{Seed: 9, RuleScale: 0.05})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	routed := func() uint32 {
		for {
			f := ds.RandomFields(rng)
			if res := ds.Simulate(0, f); len(res.Delivered) == 1 {
				return f.Dst
			}
		}
	}
	const vip = uint32(0xC6120000)
	f := &natFixture{c: c, nat: c.Net.BoxByName("chicago"), a: routed(), b: routed()}
	f.match = c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.FromPrefix(ds.Layout.MustField("dstIP").Offset, uint64(vip), 16, 32)
	})
	f.vip = ds.PacketFromFields(rule.Fields{Dst: vip | 0x1234})
	f.dst = ds.PacketFromFields(rule.Fields{Dst: f.a})
	return f
}

// rewriteTo returns a rewrite that sends a packet to each of dsts.
func (f *natFixture) rewriteTo(dsts ...uint32) network.Rewrite {
	return func(pkt []byte) [][]byte {
		var outs [][]byte
		for _, dst := range dsts {
			out := append([]byte(nil), pkt...)
			f.c.Layout.Set(out, "dstIP", uint64(dst))
			outs = append(outs, out)
		}
		return outs
	}
}

// TestNATFollowsRuleDelta pins the Type-1 flow table to its epoch: after a
// rule delta drops the NAT's translated destination at the NAT box, the
// NAT'ed query must drop exactly as the direct query does, instead of
// reusing the leaf the flow table learned before the delta.
func TestNATFollowsRuleDelta(t *testing.T) {
	f := newNATFixture(t)
	c := f.c
	setMiddlebox(t, c, f.nat, &network.Middlebox{Name: "nat", Entries: []network.MBEntry{{
		Match: f.match, Type: network.MBDeterministic, Rewrite: f.rewriteTo(f.a),
	}}})
	if b := c.Behavior(f.nat, f.vip); !b.Delivered("") || b.Rewrites != 1 {
		t.Fatalf("NAT'ed packet must be delivered before the delta: %v", b)
	}

	drop := RuleDelta{Op: OpAddFwdRule, Box: f.nat, Rule: rule.FwdRule{Prefix: rule.P(f.a, 32), Port: rule.Drop}}
	if err := c.ApplyRuleDeltas([]RuleDelta{drop}); err != nil {
		t.Fatal(err)
	}
	direct, nat := c.Behavior(f.nat, f.dst), c.Behavior(f.nat, f.vip)
	if direct.Delivered("") {
		t.Fatalf("direct packet must drop after the delta: %v", direct)
	}
	if nat.Delivered("") || len(nat.Drops) != len(direct.Drops) || nat.Drops[0] != direct.Drops[0] {
		t.Fatalf("NAT'ed packet answers %v, the direct one %v", nat, direct)
	}
}

// TestSetMiddleboxPublishes replaces the NAT's Type-1 entry with a Type-3
// load balancer through OpSetMiddlebox: the change publishes an epoch, so
// the very next answer is the probabilistic one with both deliveries, not
// the Type-1 walk memoized before it.
func TestSetMiddleboxPublishes(t *testing.T) {
	f := newNATFixture(t)
	c := f.c
	setMiddlebox(t, c, f.nat, &network.Middlebox{Name: "nat", Entries: []network.MBEntry{{
		Match: f.match, Type: network.MBDeterministic, Rewrite: f.rewriteTo(f.a),
	}}})
	if b := c.Behavior(f.nat, f.vip); b.Probabilistic || len(b.Deliveries) != 1 {
		t.Fatalf("Type-1 NAT answers %v", b)
	}

	setMiddlebox(t, c, f.nat, &network.Middlebox{Name: "lb", Entries: []network.MBEntry{{
		Match: f.match, Type: network.MBProbabilistic, Rewrite: f.rewriteTo(f.a, f.b),
	}}})
	b := c.Behavior(f.nat, f.vip)
	if !b.Probabilistic || len(b.Deliveries) != 2 || b.Rewrites != 2 {
		t.Fatalf("Type-3 load balancer answers %v (probabilistic %v)", b, b.Probabilistic)
	}

	setMiddlebox(t, c, f.nat, nil)
	if b := c.Behavior(f.nat, f.vip); b.Delivered("") || b.Rewrites != 0 {
		t.Fatalf("detached middlebox still answers %v", b)
	}
}

// TestSetMiddleboxValidates rejects, before anything changes, a middlebox
// whose entry matches a predicate that is not live or has no rewrite.
func TestSetMiddleboxValidates(t *testing.T) {
	f := newNATFixture(t)
	before := f.c.Manager.Snapshot()
	for _, e := range []network.MBEntry{
		{Match: 1 << 20, Rewrite: f.rewriteTo(f.a)},
		{Match: -1, Rewrite: f.rewriteTo(f.a)},
		{Match: f.match},
	} {
		mb := &network.Middlebox{Entries: []network.MBEntry{e}}
		if err := f.c.ApplyRuleDeltas([]RuleDelta{{Op: OpSetMiddlebox, Box: f.nat, MB: mb}}); err == nil {
			t.Fatalf("entry %+v accepted", e)
		}
	}
	if f.c.Manager.Snapshot() != before {
		t.Fatal("a rejected batch published an epoch")
	}
}
