// Network-wide invariant checking at atomic-predicate granularity: exact
// reachability sets, loop detection over the whole header space, and a
// box-to-box connectivity matrix — the §I applications, answered as BDDs
// rather than per-packet samples.
package main

import (
	"fmt"
	"log"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
	"apclassifier/internal/verify"
)

func main() {
	ds := netgen.Internet2Like(netgen.Config{Seed: 4, RuleScale: 0.02})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	a := verify.New(c)
	fmt.Printf("analyzing %d atoms over %d boxes\n\n", a.NumAtoms(), len(ds.Boxes))

	// Exact reachability: the set of packets that reach a host from a box.
	seattle := c.Net.BoxByName("seattle")
	for _, h := range ds.Hosts[:3] {
		set := a.ReachSet(seattle, h.Name)
		fmt.Printf("packets reaching %-7s from seattle: %s\n", h.Name, a.Describe(set))
	}

	// Blackholes: everything seattle cannot route.
	fmt.Printf("\nblackholed at/after seattle: %s\n", a.Describe(a.Blackholes(seattle)))

	// Loop freedom across the entire header space, every ingress.
	if loops := a.Loops(); len(loops) == 0 {
		fmt.Println("loop freedom: HOLDS for all packets from all ingresses")
	} else {
		fmt.Printf("loop freedom: VIOLATED by %d (ingress, atom) pairs\n", len(loops))
	}

	// Connectivity matrix: atoms from row box that traverse column box.
	fmt.Println("\nconnectivity matrix (atoms traversing column when entering at row):")
	m := a.ReachabilityMatrix()
	fmt.Printf("%14s", "")
	for _, b := range ds.Boxes {
		fmt.Printf("%6.5s", b.Name)
	}
	fmt.Println()
	for i, row := range m {
		fmt.Printf("%14s", ds.Boxes[i].Name)
		for _, v := range row {
			fmt.Printf("%6d", v)
		}
		fmt.Println()
	}

	// Now break the network and watch the invariant fail: make chicago
	// and kansascity bounce 10.0.0.0/8 between each other.
	chi, kc := c.Net.BoxByName("chicago"), c.Net.BoxByName("kansascity")
	fmt.Println("\ninjecting a routing loop for 10.0.0.0/8 between chicago and kansascity...")
	toKC := portToward(c, chi, kc)
	toChi := portToward(c, kc, chi)
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpAddFwdRule, Box: chi, Rule: rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: toKC}},
		{Op: apclassifier.OpAddFwdRule, Box: kc, Rule: rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: toChi}},
	}); err != nil {
		log.Fatal(err)
	}

	a2 := verify.New(c)
	loops := a2.Loops()
	fmt.Printf("loop check now reports %d violating (ingress, atom) pairs\n", len(loops))
	if len(loops) > 0 {
		fmt.Printf("example violating header: atom %d from %s\n",
			loops[0].AtomID, ds.Boxes[loops[0].Ingress].Name)
	}
}

// portToward finds the port of box a that links directly to box b.
func portToward(c *apclassifier.Classifier, a, b int) int {
	for pi, p := range c.Net.Boxes[a].Ports {
		if p.Peer.Kind == network.DestBox && p.Peer.Box == b {
			return pi
		}
	}
	log.Fatalf("no direct link %d -> %d", a, b)
	return -1
}
