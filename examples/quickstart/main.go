// Quickstart: compile a synthetic Internet2-like network, identify the
// network-wide behavior of a few packets, apply a live rule update, and
// reconstruct the AP Tree — the whole public API in one file.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func main() {
	// 1. A data-plane snapshot: 9 routers, destination-IP routing. At
	// scale 0.05 this is ~6.3k forwarding rules compiling to 161
	// predicates, like the real Internet2 dataset.
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.05})

	// 2. Compile: rules → predicates → atomic predicates → AP Tree.
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d rules into %d predicates and %d atomic predicates (avg tree depth %.1f)\n\n",
		ds.NumRules(), c.NumPredicates(), c.NumAtoms(), c.AverageDepth())

	// 3. Query behaviors for random routed packets.
	rng := rand.New(rand.NewSource(7))
	shown := 0
	for shown < 3 {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		pkt := ds.PacketFromFields(f)
		b := c.Behavior(ingress, pkt)
		if !b.Delivered("") {
			continue
		}
		shown++
		leaf := c.Classify(pkt)
		fmt.Printf("packet dst=%s entering %s\n", fmtIP(f.Dst), ds.Boxes[ingress].Name)
		fmt.Printf("  stage 1: atomic predicate #%d found at depth %d\n", leaf.AtomID, leaf.Depth)
		fmt.Printf("  stage 2: %s\n\n", describe(c, b))
	}

	// 4. Live update: blackhole a prefix on its delivery box and watch the
	// behavior change without any rebuild.
	target := ds.Hosts[0]
	victim := ds.Boxes[target.Box].Fwd.Rules[0]
	fmt.Printf("installing drop rule for %v on %s...\n", victim.Prefix, ds.Boxes[target.Box].Name)
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{{
		Op:   apclassifier.OpAddFwdRule,
		Box:  target.Box,
		Rule: rule.FwdRule{Prefix: rule.P(victim.Prefix.Value, 32), Port: rule.Drop}, // a /32 inside the victim prefix
	}}); err != nil {
		log.Fatal(err)
	}
	f := rule.Fields{Dst: victim.Prefix.Value}
	b := c.Behavior(target.Box, ds.PacketFromFields(f))
	fmt.Printf("  behavior from %s now: %s\n\n", ds.Boxes[target.Box].Name, describe(c, b))

	// 5. Reconstruct the tree (normally done periodically in background).
	before := c.AverageDepth()
	c.Reconstruct(false)
	fmt.Printf("reconstructed AP Tree: avg depth %.1f -> %.1f\n", before, c.AverageDepth())
}

func describe(c *apclassifier.Classifier, b interface {
	Delivered(string) bool
	String() string
}) string {
	return b.String()
}

func fmtIP(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
