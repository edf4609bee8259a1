package netgen

import (
	"math/rand"
	"testing"

	"apclassifier/internal/rule"
)

func TestInternet2Topology(t *testing.T) {
	ds := Internet2Like(Config{Seed: 1, RuleScale: 0.01})
	if len(ds.Boxes) != 9 {
		t.Fatalf("boxes = %d, want 9", len(ds.Boxes))
	}
	if len(ds.Links) != 13 {
		t.Fatalf("links = %d, want 13", len(ds.Links))
	}
	ports := 0
	for i := range ds.Boxes {
		ports += ds.Boxes[i].NumPorts
	}
	if ports != 161 {
		t.Fatalf("total ports = %d, want 161 (the paper's predicate budget)", ports)
	}
	if ds.NumACLRules() != 0 {
		t.Fatal("Internet2 has no ACLs")
	}
	if len(ds.Hosts) != 135 {
		t.Fatalf("hosts = %d, want 135 edge ports", len(ds.Hosts))
	}
}

func TestInternet2RuleVolumeScales(t *testing.T) {
	small := Internet2Like(Config{Seed: 1, RuleScale: 0.01})
	big := Internet2Like(Config{Seed: 1, RuleScale: 0.05})
	if small.NumRules() >= big.NumRules() {
		t.Fatalf("scaling broken: %d !< %d", small.NumRules(), big.NumRules())
	}
	// One rule per (box, prefix): volume ≈ 9 × pool size.
	if got := small.NumRules(); got < 9*100 || got > 9*150 {
		t.Fatalf("rule count %d outside expected band for scale 0.01", got)
	}
}

func TestInternet2Deterministic(t *testing.T) {
	a := Internet2Like(Config{Seed: 42, RuleScale: 0.01})
	b := Internet2Like(Config{Seed: 42, RuleScale: 0.01})
	if a.NumRules() != b.NumRules() {
		t.Fatal("same seed must give same dataset")
	}
	for i := range a.Boxes {
		if len(a.Boxes[i].Fwd.Rules) != len(b.Boxes[i].Fwd.Rules) {
			t.Fatalf("box %d rule counts differ", i)
		}
		for j, r := range a.Boxes[i].Fwd.Rules {
			if r != b.Boxes[i].Fwd.Rules[j] {
				t.Fatalf("box %d rule %d differs", i, j)
			}
		}
	}
	c := Internet2Like(Config{Seed: 43, RuleScale: 0.01})
	same := true
	for i := range a.Boxes {
		if len(a.Boxes[i].Fwd.Rules) != len(c.Boxes[i].Fwd.Rules) {
			same = false
			break
		}
		for j, r := range a.Boxes[i].Fwd.Rules {
			if r != c.Boxes[i].Fwd.Rules[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds must give different datasets")
	}
}

func TestStanfordTopology(t *testing.T) {
	ds := StanfordLike(Config{Seed: 1, RuleScale: 0.002})
	if len(ds.Boxes) != 16 {
		t.Fatalf("boxes = %d, want 16", len(ds.Boxes))
	}
	if len(ds.Links) != 29 {
		t.Fatalf("links = %d, want 29", len(ds.Links))
	}
	ports := 0
	for i := range ds.Boxes {
		ports += ds.Boxes[i].NumPorts
	}
	if ports != 450 {
		t.Fatalf("total ports = %d, want 450", ports)
	}
	if ds.NumACLs() == 0 || ds.NumACLRules() == 0 {
		t.Fatal("Stanford must have ACLs")
	}
	if ds.Layout.Bits() != 104 {
		t.Fatal("Stanford uses the 5-tuple layout")
	}
}

func TestStanfordFullScaleTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	ds := StanfordLike(Config{Seed: 1, RuleScale: 1})
	if got := ds.NumRules(); got < 700000 || got > 800000 {
		t.Fatalf("full-scale rules = %d, want ≈757k", got)
	}
	if got := ds.NumACLRules(); got < 1400 || got > 1700 {
		t.Fatalf("full-scale ACL rules = %d, want ≈1584", got)
	}
}

func TestInternet2FullScaleTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	ds := Internet2Like(Config{Seed: 1, RuleScale: 1})
	if got := ds.NumRules(); got < 120000 || got > 130000 {
		t.Fatalf("full-scale rules = %d, want ≈126k", got)
	}
}

func TestSimulateDeliversRoutedTraffic(t *testing.T) {
	ds := Internet2Like(Config{Seed: 7, RuleScale: 0.01})
	rng := rand.New(rand.NewSource(7))
	delivered, dropped := 0, 0
	for i := 0; i < 500; i++ {
		f := ds.RandomFields(rng)
		res := ds.Simulate(rng.Intn(len(ds.Boxes)), f)
		if len(res.Delivered) > 0 {
			delivered++
		} else {
			dropped++
		}
		if res.Looped {
			t.Fatalf("shortest-path FIBs must not loop: %+v", f)
		}
		if len(res.Delivered) > 1 {
			t.Fatalf("LPM unicast cannot multicast: %v", res.Delivered)
		}
	}
	if delivered == 0 {
		t.Fatal("no packet delivered — generator produces dead networks")
	}
	if dropped == 0 {
		t.Fatal("no packet dropped — RandomFields should include unrouted dsts")
	}
}

func TestSimulateConsistentDeliveryAcrossIngress(t *testing.T) {
	// With multihoming disabled, a routed destination must reach the same
	// host regardless of where the packet enters (shortest-path
	// consistency of generated FIBs).
	ds := Internet2Like(Config{Seed: 9, RuleScale: 0.01, Multihome: -1})
	rng := rand.New(rand.NewSource(9))
	checked := 0
	for trial := 0; trial < 200 && checked < 50; trial++ {
		f := ds.RandomFields(rng)
		res0 := ds.Simulate(0, f)
		if len(res0.Delivered) != 1 {
			continue
		}
		checked++
		for b := 1; b < len(ds.Boxes); b++ {
			res := ds.Simulate(b, f)
			if len(res.Delivered) != 1 || res.Delivered[0] != res0.Delivered[0] {
				t.Fatalf("dst %08x delivered to %v from box 0 but %v from box %d",
					f.Dst, res0.Delivered, res.Delivered, b)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d delivered flows found", checked)
	}
}

func TestMultihomingDeliversSomewhereFromEveryIngress(t *testing.T) {
	// With anycast prefixes, the host may differ by ingress but routed
	// traffic must still deliver from everywhere.
	ds := Internet2Like(Config{Seed: 9, RuleScale: 0.01, Multihome: 0.5})
	rng := rand.New(rand.NewSource(9))
	anycastSeen := false
	checked := 0
	for trial := 0; trial < 300 && checked < 60; trial++ {
		f := ds.RandomFields(rng)
		res0 := ds.Simulate(0, f)
		if len(res0.Delivered) != 1 {
			continue
		}
		checked++
		for b := 1; b < len(ds.Boxes); b++ {
			res := ds.Simulate(b, f)
			if len(res.Delivered) != 1 {
				t.Fatalf("routed dst %08x not delivered from box %d", f.Dst, b)
			}
			if res.Delivered[0] != res0.Delivered[0] {
				anycastSeen = true
			}
		}
	}
	if !anycastSeen {
		t.Fatal("multihoming 0.5 should produce ingress-dependent delivery")
	}
}

func TestMultihomingIncreasesAtomDiversity(t *testing.T) {
	// The motivation for multihoming: more distinct forwarding patterns.
	// Count distinct (box → port) route vectors over sampled prefixes.
	single := Internet2Like(Config{Seed: 10, RuleScale: 0.02, Multihome: -1})
	multi := Internet2Like(Config{Seed: 10, RuleScale: 0.02, Multihome: 0.3})
	count := func(ds *Dataset) int {
		vecs := map[string]bool{}
		for _, r := range ds.Boxes[0].Fwd.Rules {
			key := ""
			for b := range ds.Boxes {
				p, ok := ds.Boxes[b].Fwd.Lookup(r.Prefix.Value)
				key += string(rune(b*64 + p + 2))
				_ = ok
			}
			vecs[key] = true
		}
		return len(vecs)
	}
	if count(multi) <= count(single) {
		t.Fatalf("multihoming should diversify route vectors: %d !> %d", count(multi), count(single))
	}
}

func TestStanfordACLsActuallyFilter(t *testing.T) {
	ds := StanfordLike(Config{Seed: 3, RuleScale: 0.01})
	rng := rand.New(rand.NewSource(3))
	aclDrop := false
	for i := 0; i < 3000 && !aclDrop; i++ {
		f := ds.RandomFields(rng)
		// Find a packet that routes but is ACL-denied: simulate with and
		// without ACLs and compare.
		res := ds.Simulate(rng.Intn(len(ds.Boxes)), f)
		if len(res.Delivered) > 0 {
			continue
		}
		// Retry without ACLs.
		stripped := *ds
		stripped.Boxes = append([]BoxSpec(nil), ds.Boxes...)
		for b := range stripped.Boxes {
			stripped.Boxes[b].PortACL = map[int]*rule.ACL{}
			stripped.Boxes[b].InACL = nil
		}
		res2 := stripped.Simulate(0, f)
		if len(res2.Delivered) > 0 {
			aclDrop = true
		}
	}
	if !aclDrop {
		t.Fatal("no packet was dropped by an ACL — ACL generation too weak")
	}
}

func TestPacketFromFieldsRoundTrip(t *testing.T) {
	ds := StanfordLike(Config{Seed: 1, RuleScale: 0.002})
	f := rule.Fields{Src: 0x01020304, Dst: 0xAB421234, SrcPort: 1234, DstPort: 80, Proto: 6}
	p := ds.PacketFromFields(f)
	if ds.Layout.Get(p, "dstIP") != uint64(f.Dst) || ds.Layout.Get(p, "proto") != 6 {
		t.Fatal("field encoding broken")
	}
	ds2 := Internet2Like(Config{Seed: 1, RuleScale: 0.01})
	p2 := ds2.PacketFromFields(f)
	if len(p2) != 4 || ds2.Layout.Get(p2, "dstIP") != uint64(f.Dst) {
		t.Fatal("dst-only layout encoding broken")
	}
}
