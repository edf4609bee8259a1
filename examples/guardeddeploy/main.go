// Guarded deployment: the controller workflow the paper opens §I with —
// before any data-plane update is committed, verify that the data plane
// *with the update* still satisfies the network's flow properties. Safe
// updates commit; property-breaking updates roll back automatically.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/policy"
	"apclassifier/internal/rule"
)

func main() {
	ds := netgen.Internet2Like(netgen.Config{Seed: 31, RuleScale: 0.02})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))

	// The network's contract: a handful of monitored services must stay
	// reachable, and the data plane must stay loop-free.
	var props []policy.Property
	props = append(props, policy.Property{Kind: policy.LoopFree})
	d := c.Manager.DD()
	dstField := ds.Layout.MustField("dstIP")
	type service struct {
		ing  int
		host string
		dst  uint32
		dbox int
	}
	var services []service
	for len(props) < 4 {
		f := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		if b := c.Behavior(ing, ds.PacketFromFields(f)); len(b.Deliveries) == 1 {
			// Scope each property to the service address itself: THIS
			// destination must keep reaching THIS host — stronger than
			// "anything reaches".
			props = append(props, policy.Property{
				Kind: policy.Reachable, From: ing, Host: b.Deliveries[0].Host,
				Scope: d.FromPrefix(dstField.Offset, uint64(f.Dst), 32, 32),
			})
			services = append(services, service{ing, b.Deliveries[0].Host, f.Dst, b.Deliveries[0].Box})
		}
	}
	if v := policy.Check(c, props); len(v) != 0 {
		log.Fatalf("contract does not hold initially: %v", v)
	}
	fmt.Printf("contract: %d properties hold\n\n", len(props))
	g := policy.NewGuard(c, props)

	// Proposed change 1: a harmless blackhole for unused space.
	r1 := rule.FwdRule{Prefix: rule.P(0xF0000000, 8), Port: rule.Drop}
	ok, _, err := g.TryFwdRule(0, r1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proposal 1 (drop 240.0.0.0/8 at %s): committed=%v\n", ds.Boxes[0].Name, ok)

	// Proposed change 2: a typo'd host route that would blackhole a
	// monitored service address at its delivery box (a /32 always wins
	// the longest-prefix match, so this bites immediately).
	victim := services[0]
	r2 := rule.FwdRule{Prefix: rule.P(victim.dst, 32), Port: rule.Drop}
	ok, violations, err := g.TryFwdRule(victim.dbox, r2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proposal 2 (blackhole %s/32 at %s): committed=%v\n",
		ipStr(victim.dst), ds.Boxes[victim.dbox].Name, ok)
	for _, v := range violations {
		fmt.Printf("  violation: %s — %s\n", v.Property, v.Detail)
	}

	// The contract still holds afterwards.
	if v := policy.Check(c, props); len(v) == 0 {
		fmt.Println("\ncontract intact after both proposals ✔")
	}
}

func ipStr(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
