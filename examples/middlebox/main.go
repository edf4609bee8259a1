// Middlebox header changes (§V-E): attach a NAT-style middlebox to a
// backbone router and identify behaviors across the rewrite — including
// the Type-1 flow-table cache, Type-2 re-search, and a Type-3
// probabilistic load balancer.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"apclassifier"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

func main() {
	ds := netgen.Internet2Like(netgen.Config{Seed: 9, RuleScale: 0.05})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))

	// Two real, routed destinations the NAT will translate to.
	insideA := routedDst(ds, rng)
	insideB := routedDst(ds, rng)
	// A virtual service prefix that is NOT routed: without the NAT,
	// packets to 198.18.0.0/16 are dropped.
	const vip = uint32(0xC6120000)

	// The middlebox matches the virtual prefix; matching is done through
	// a predicate that participates in atomic-predicate computation.
	matchID := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref {
		f := ds.Layout.MustField("dstIP")
		return d.FromPrefix(f.Offset, uint64(vip), 16, 32)
	})

	natBox := c.Net.BoxByName("chicago")
	rewriteTo := func(dst uint32) network.Rewrite {
		return network.SetFieldRewrite(func(pkt []byte) {
			ds.Layout.Set(pkt, "dstIP", uint64(dst))
		})
	}
	// Attaching a middlebox is a data-plane change like a rule update: it
	// publishes a new epoch, whose memo starts empty.
	setMiddlebox(c, natBox, &network.Middlebox{
		Name: "nat1",
		Entries: []network.MBEntry{{
			Match:   matchID,
			Type:    network.MBDeterministic,
			Rewrite: rewriteTo(insideA),
		}},
	})

	pkt := ds.PacketFromFields(rule.Fields{Dst: vip | 0x1234})

	fmt.Println("-- without traversing the NAT --")
	other := (natBox + 1) % len(ds.Boxes)
	fmt.Printf("from %s: %s\n\n", ds.Boxes[other].Name, c.Behavior(other, pkt))

	fmt.Println("-- Type 1 (deterministic) NAT at chicago --")
	b := c.Behavior(natBox, pkt)
	fmt.Printf("from %s: %s\n", ds.Boxes[natBox].Name, b)
	flows := func() int { return network.MemoOf(c.Manager.Snapshot()).FlowLen(natBox) }
	fmt.Printf("flow-table cache entries after first packet: %d\n", flows())
	c.Behavior(natBox, pkt)
	fmt.Printf("after second packet (cache hit): %d\n\n", flows())

	fmt.Println("-- Type 3 (probabilistic) load balancer: VIP -> {A, B} --")
	setMiddlebox(c, natBox, &network.Middlebox{
		Name: "lb1",
		Entries: []network.MBEntry{{
			Match: matchID,
			Type:  network.MBProbabilistic,
			Rewrite: func(p []byte) [][]byte {
				a := append([]byte(nil), p...)
				ds.Layout.Set(a, "dstIP", uint64(insideA))
				b := append([]byte(nil), p...)
				ds.Layout.Set(b, "dstIP", uint64(insideB))
				return [][]byte{a, b}
			},
		}},
	})
	b = c.Behavior(natBox, pkt)
	fmt.Printf("from %s: %s\n", ds.Boxes[natBox].Name, b)
	fmt.Printf("probabilistic: %v, possible deliveries: %d\n", b.Probabilistic, len(b.Deliveries))
}

func setMiddlebox(c *apclassifier.Classifier, box int, mb *network.Middlebox) {
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{{Op: apclassifier.OpSetMiddlebox, Box: box, MB: mb}}); err != nil {
		log.Fatal(err)
	}
}

func routedDst(ds *netgen.Dataset, rng *rand.Rand) uint32 {
	for {
		f := ds.RandomFields(rng)
		if res := ds.Simulate(0, f); len(res.Delivered) == 1 {
			return f.Dst
		}
	}
}
