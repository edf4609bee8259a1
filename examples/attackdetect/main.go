// Attack detection (§I): like SPHINX, build a baseline of expected
// network behavior — here, the exact per-atom behavior from every ingress —
// then watch for data-plane state whose behavior deviates from it. We
// simulate a compromise that stealthily reroutes a victim prefix through
// an attacker-chosen box (a path-hijack for eavesdropping) and detect it
// by diffing behaviors, not by inspecting rules.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

func main() {
	ds := netgen.Internet2Like(netgen.Config{Seed: 21, RuleScale: 0.03})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))

	// Phase 1 — learn the baseline: behavior fingerprints for a set of
	// monitored flows from their usual ingress points.
	type flowKey struct {
		ingress int
		dst     uint32
	}
	baseline := map[flowKey]string{}
	var monitored []flowKey
	for len(monitored) < 40 {
		f := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		b := c.Behavior(ing, ds.PacketFromFields(rule.Fields{Dst: f.Dst}))
		if !b.Delivered("") {
			continue
		}
		k := flowKey{ing, f.Dst}
		baseline[k] = fingerprint(b)
		monitored = append(monitored, k)
	}
	fmt.Printf("baseline learned for %d monitored flows\n\n", len(monitored))

	// Phase 2 — the attack: pick a tap box adjacent to the victim's
	// ingress but off the victim's normal path, and detour the victim /32
	// through it. The tap's own FIB still delivers the traffic onward, so
	// the flow keeps working — a stealthy path hijack for eavesdropping.
	victim := monitored[7]
	path := c.Behavior(victim.ingress, ds.PacketFromFields(rule.Fields{Dst: victim.dst})).Path()
	onPath := map[int]bool{}
	for _, b := range path {
		onPath[b] = true
	}
	tap, tapPort := -1, -1
	for pi, p := range c.Net.Boxes[victim.ingress].Ports {
		if p.Peer.Kind == network.DestBox && !onPath[p.Peer.Box] {
			tap, tapPort = p.Peer.Box, pi
			break
		}
	}
	if tap < 0 { // every neighbor is on the path: just pick one mid-path
		for pi, p := range c.Net.Boxes[victim.ingress].Ports {
			if p.Peer.Kind == network.DestBox {
				tap, tapPort = p.Peer.Box, pi
			}
		}
	}
	fmt.Printf("ATTACK: detouring dst %s through %s...\n", ip(victim.dst), ds.Boxes[tap].Name)
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpAddFwdRule, Box: victim.ingress, Rule: rule.FwdRule{Prefix: rule.P(victim.dst, 32), Port: tapPort}},
	}); err != nil {
		log.Fatal(err)
	}

	// Phase 3 — detection sweep: re-fingerprint all monitored flows.
	alarms := 0
	for _, k := range monitored {
		b := c.Behavior(k.ingress, ds.PacketFromFields(rule.Fields{Dst: k.dst}))
		if got := fingerprint(b); got != baseline[k] {
			alarms++
			fmt.Printf("ALARM: flow dst %s from %s deviates\n  expected %s\n  observed %s\n",
				ip(k.dst), ds.Boxes[k.ingress].Name, baseline[k], got)
			if b.Traverses(tap) {
				fmt.Printf("  -> traffic now passes through %s (possible tap)\n", ds.Boxes[tap].Name)
			}
		}
	}
	fmt.Printf("\ndetection sweep: %d/%d flows deviated\n", alarms, len(monitored))
	if alarms == 0 {
		fmt.Println("NOTE: hijack did not alter monitored behavior (try another seed)")
	}
}

// fingerprint canonicalizes a behavior for comparison.
func fingerprint(b *network.Behavior) string {
	return b.String()
}

func ip(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
