// Fault localization (§I): when a flow property is violated, compare the
// expected behavior with the identified actual behavior to find the box
// whose data plane is at fault. We inject a misconfigured rule into a
// random box and let behavior identification pinpoint it.
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
	ds := netgen.Internet2Like(netgen.Config{Seed: 5, RuleScale: 0.05})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))

	// Pick a flow that currently works end to end from every ingress.
	var flow rule.Fields
	var host string
	for {
		f := ds.RandomFields(rng)
		ref := ds.Simulate(0, f)
		if len(ref.Delivered) == 1 {
			flow, host = f, ref.Delivered[0]
			break
		}
	}
	fmt.Printf("monitored flow: dst %s, expected delivery to %s\n", ip(flow.Dst), host)

	// Record the expected path from a chosen ingress.
	ingress := rng.Intn(len(ds.Boxes))
	expected := c.Behavior(ingress, ds.PacketFromFields(flow))
	fmt.Printf("expected path from %s: %s\n\n", ds.Boxes[ingress].Name, pathNames(ds, expected.Path()))

	// Fault injection: a more-specific drop rule appears on one of the
	// boxes along the path (a typo'd blackhole, say).
	path := expected.Path()
	faulty := path[rng.Intn(len(path))]
	fmt.Printf("injecting faulty rule (blackhole %s/32) into %s...\n\n", ip(flow.Dst), ds.Boxes[faulty].Name)
	fault := rule.P(flow.Dst, 32)
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpAddFwdRule, Box: faulty, Rule: rule.FwdRule{Prefix: fault, Port: rule.Drop}},
	}); err != nil {
		log.Fatal(err)
	}

	// Detection: the property "flow reaches host" now fails.
	actual := c.Behavior(ingress, ds.PacketFromFields(flow))
	if actual.Delivered(host) {
		log.Fatal("fault not observable — injection failed")
	}
	fmt.Printf("property violation detected: flow no longer reaches %s\n", host)
	fmt.Printf("actual behavior: %s\n\n", actual)

	// Localization: walk the expected path; the first box where actual
	// behavior diverges from expected is the faulty one.
	actualPath := actual.Path()
	located := -1
	for i, box := range path {
		if i >= len(actualPath) || actualPath[i] != box {
			located = path[i-1]
			break
		}
	}
	if located < 0 {
		// Paths agree on every common hop: the fault is at the last
		// common box (it drops instead of delivering/forwarding).
		located = actualPath[len(actualPath)-1]
	}
	fmt.Printf("localized fault at: %s\n", ds.Boxes[located].Name)
	if located == faulty {
		fmt.Println("localization CORRECT ✔")
	} else {
		fmt.Printf("localization WRONG (injected at %s)\n", ds.Boxes[faulty].Name)
	}

	// Repair and verify.
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpRemoveFwdRule, Box: faulty, Prefix: fault},
	}); err != nil {
		log.Fatal(err)
	}
	if c.Behavior(ingress, ds.PacketFromFields(flow)).Delivered(host) {
		fmt.Println("after repair: flow delivered again ✔")
	}
}

func pathNames(ds *netgen.Dataset, path []int) string {
	s := ""
	for i, b := range path {
		if i > 0 {
			s += " -> "
		}
		s += ds.Boxes[b].Name
	}
	return s
}

func ip(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
