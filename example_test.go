package apclassifier_test

import (
	"fmt"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// ExampleNew compiles a tiny hand-built network and identifies a packet's
// network-wide behavior.
func ExampleNew() {
	// Two boxes: a --- b, with hosts h1 (on a) and h2 (on b).
	ds := &netgen.Dataset{Name: "tiny", Layout: netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout}
	ds.Boxes = []netgen.BoxSpec{
		{Name: "a", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
		{Name: "b", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
	}
	ds.Links = []netgen.Link{{A: 0, PA: 1, B: 1, PB: 1}}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "h1"}, {Box: 1, Port: 0, Name: "h2"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0}) // 10/8 -> h1
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x14000000, 8), Port: 1}) // 20/8 -> b
	ds.Boxes[1].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x14000000, 8), Port: 0}) // 20/8 -> h2

	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		panic(err)
	}
	pkt := ds.PacketFromFields(rule.Fields{Dst: 0x14000001}) // 20.0.0.1
	b := c.Behavior(0, pkt)
	fmt.Println("delivered to h2:", b.Delivered("h2"))
	fmt.Println("atoms:", c.NumAtoms())
	// Output:
	// delivered to h2: true
	// atoms: 3
}

// ExampleClassifier_ApplyRuleDeltas changes the data plane with one
// batched update, then undoes it with another; a batch that fails
// validation changes nothing.
func ExampleClassifier_ApplyRuleDeltas() {
	ds := &netgen.Dataset{Name: "tiny", Layout: netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout}
	ds.Boxes = []netgen.BoxSpec{{Name: "a", NumPorts: 1, PortACL: map[int]*rule.ACL{}}}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "h1"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0})

	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		panic(err)
	}
	pkt := ds.PacketFromFields(rule.Fields{Dst: 0x0A000001}) // 10.0.0.1
	host := rule.P(0x0A000001, 32)

	// Blackhole 10.0.0.1/32.
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpAddFwdRule, Box: 0, Rule: rule.FwdRule{Prefix: host, Port: rule.Drop}},
	}); err != nil {
		panic(err)
	}
	fmt.Println("delivered with the drop:", c.Behavior(0, pkt).Delivered("h1"))

	// A batch naming an unknown box is rejected whole.
	err = c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpRemoveFwdRule, Box: 0, Prefix: host},
		{Op: apclassifier.OpSetInACL, Box: 7},
	})
	fmt.Println("bad batch:", err)
	fmt.Println("delivered after the bad batch:", c.Behavior(0, pkt).Delivered("h1"))

	// Remove the drop.
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpRemoveFwdRule, Box: 0, Prefix: host},
	}); err != nil {
		panic(err)
	}
	fmt.Println("delivered once removed:", c.Behavior(0, pkt).Delivered("h1"))
	// Output:
	// delivered with the drop: false
	// bad batch: apclassifier: delta 1: unknown box 7
	// delivered after the bad batch: false
	// delivered once removed: true
}
