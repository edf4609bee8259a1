package rule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrefixMatches(t *testing.T) {
	p := P(0x0A000000, 8) // 10.0.0.0/8
	if !p.Matches(0x0A123456) {
		t.Fatal("10.18.52.86 must match 10/8")
	}
	if p.Matches(0x0B000000) {
		t.Fatal("11.0.0.0 must not match 10/8")
	}
	if !P(0, 0).Matches(0xFFFFFFFF) {
		t.Fatal("/0 matches everything")
	}
	host := P(0xC0A80101, 32)
	if !host.Matches(0xC0A80101) || host.Matches(0xC0A80102) {
		t.Fatal("/32 must match only itself")
	}
}

func TestPrefixCanonicalization(t *testing.T) {
	// P masks the value so prefixes compare by their canonical form.
	if P(0x0A123456, 8) != P(0x0AFFFFFF, 8) {
		t.Fatal("prefixes with the same masked value must be equal")
	}
	if P(0x0A000000, 8).String() != "10.0.0.0/8" {
		t.Fatalf("String = %q", P(0x0A000000, 8).String())
	}
}

func TestPrefixContainsOverlaps(t *testing.T) {
	p8 := P(0x0A000000, 8)
	p16 := P(0x0A0B0000, 16)
	q16 := P(0x0B000000, 16)
	if !p8.Contains(p16) || p16.Contains(p8) {
		t.Fatal("containment is one-directional")
	}
	if p16.Contains(q16) || q16.Contains(p16) {
		t.Fatal("distinct same-length prefixes do not nest")
	}
	if !p8.Contains(p8) {
		t.Fatal("a prefix contains itself")
	}
}

func TestFwdTableLPM(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0, 0), 0})              // default route -> port 0
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})     // 10/8 -> port 1
	tbl.Add(FwdRule{P(0x0A0B0000, 16), 2})    // 10.11/16 -> port 2
	tbl.Add(FwdRule{P(0x0A0B0C00, 24), Drop}) // 10.11.12/24 -> drop
	cases := []struct {
		ip   uint32
		port int
		ok   bool
	}{
		{0xC0000001, 0, true},
		{0x0A000001, 1, true},
		{0x0A0B0001, 2, true},
		{0x0A0B0C01, 0, false}, // drop rule
	}
	for _, c := range cases {
		port, ok := tbl.Lookup(c.ip)
		if ok != c.ok || (ok && port != c.port) {
			t.Errorf("Lookup(%08x) = (%d,%v), want (%d,%v)", c.ip, port, ok, c.port, c.ok)
		}
	}
}

func TestFwdTableNoMatch(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	if _, ok := tbl.Lookup(0x0B000000); ok {
		t.Fatal("packet outside all prefixes must be dropped")
	}
}

func TestFwdTableFirstOfEqualLengthWins(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	tbl.Add(FwdRule{P(0x0A000000, 8), 2})
	port, ok := tbl.Lookup(0x0A000001)
	if !ok || port != 1 {
		t.Fatalf("first rule must win: got (%d,%v)", port, ok)
	}
}

func TestFwdTableReplaceRemove(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	tbl.Remove(P(0x0A000000, 8))
	tbl.Add(FwdRule{P(0x0A000000, 8), 3})
	if port, _ := tbl.Lookup(0x0A000001); port != 3 {
		t.Fatalf("remove-then-add did not take effect: port %d", port)
	}
	if !tbl.Remove(P(0x0A000000, 8)) {
		t.Fatal("Remove must report success")
	}
	if _, ok := tbl.Lookup(0x0A000001); ok {
		t.Fatal("rule still matching after Remove")
	}
	if tbl.Remove(P(0x0A000000, 8)) {
		t.Fatal("second Remove must report nothing removed")
	}
}

func TestByDescendingLength(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0, 0), 0})
	tbl.Add(FwdRule{P(0x0A0B0000, 16), 1})
	tbl.Add(FwdRule{P(0x0A000000, 8), 2})
	tbl.Add(FwdRule{P(0x0C000000, 8), 3})
	idx := tbl.ByDescendingLength()
	lens := []int{}
	for _, i := range idx {
		lens = append(lens, tbl.Rules[i].Prefix.Length)
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] > lens[i-1] {
			t.Fatalf("not descending: %v", lens)
		}
	}
	// Stability: the two /8s keep insertion order.
	if tbl.Rules[idx[1]].Port != 2 || tbl.Rules[idx[2]].Port != 3 {
		t.Fatalf("tie not stable: %v", idx)
	}
}

func TestPortRange(t *testing.T) {
	r := R(1024, 2048)
	if !r.Contains(1024) || !r.Contains(2048) || !r.Contains(1500) {
		t.Fatal("inclusive bounds")
	}
	if r.Contains(1023) || r.Contains(2049) {
		t.Fatal("out of range")
	}
	if !AnyPort.Contains(0) || !AnyPort.Contains(65535) {
		t.Fatal("AnyPort must contain all ports")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range must panic")
		}
	}()
	R(2, 1)
}

func TestMatch5(t *testing.T) {
	m := Match5{
		Src:     P(0x0A000000, 8),
		Dst:     P(0xC0A80000, 16),
		SrcPort: AnyPort,
		DstPort: R(80, 80),
		Proto:   6,
	}
	hit := Fields{Src: 0x0A000001, Dst: 0xC0A80101, SrcPort: 9999, DstPort: 80, Proto: 6}
	if !m.Matches(hit) {
		t.Fatal("expected match")
	}
	for name, f := range map[string]Fields{
		"wrong src":   {Src: 0x0B000001, Dst: 0xC0A80101, SrcPort: 9999, DstPort: 80, Proto: 6},
		"wrong dst":   {Src: 0x0A000001, Dst: 0xC0A90101, SrcPort: 9999, DstPort: 80, Proto: 6},
		"wrong dport": {Src: 0x0A000001, Dst: 0xC0A80101, SrcPort: 9999, DstPort: 81, Proto: 6},
		"wrong proto": {Src: 0x0A000001, Dst: 0xC0A80101, SrcPort: 9999, DstPort: 80, Proto: 17},
	} {
		if m.Matches(f) {
			t.Errorf("%s: unexpected match", name)
		}
	}
	if !MatchAll().Matches(hit) {
		t.Fatal("MatchAll must match anything")
	}
}

func TestACLFirstMatch(t *testing.T) {
	acl := &ACL{
		Rules: []ACLRule{
			{Match5{Src: P(0x0A000000, 8), SrcPort: AnyPort, DstPort: AnyPort, Proto: AnyProto}, Deny},
			{Match5{Src: P(0x0A0B0000, 16), SrcPort: AnyPort, DstPort: AnyPort, Proto: AnyProto}, Permit},
			{Match5{SrcPort: AnyPort, DstPort: AnyPort, Proto: AnyProto}, Permit},
		},
		Default: Deny,
	}
	// 10.11.x.y hits the broader deny first: first match wins.
	if acl.Allows(Fields{Src: 0x0A0B0001}) {
		t.Fatal("first-match deny must win over later permit")
	}
	if !acl.Allows(Fields{Src: 0x0B000001}) {
		t.Fatal("catch-all permit must apply")
	}
}

func TestACLDefault(t *testing.T) {
	deny := &ACL{Default: Deny}
	permit := &ACL{Default: Permit}
	f := Fields{Src: 1, Dst: 2}
	if deny.Allows(f) {
		t.Fatal("empty deny-default ACL must deny")
	}
	if !permit.Allows(f) {
		t.Fatal("empty permit-default ACL must permit")
	}
}

func TestLPMQuickAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tbl FwdTable
	for i := 0; i < 200; i++ {
		tbl.Add(FwdRule{P(rng.Uint32(), rng.Intn(33)), rng.Intn(8)})
	}
	naive := func(ip uint32) (int, bool) {
		best, port := -1, 0
		for _, r := range tbl.Rules {
			if r.Prefix.Matches(ip) && r.Prefix.Length > best {
				best, port = r.Prefix.Length, r.Port
			}
		}
		if best < 0 || port == Drop {
			return 0, false
		}
		return port, true
	}
	err := quick.Check(func(ip uint32) bool {
		p1, ok1 := tbl.Lookup(ip)
		p2, ok2 := naive(ip)
		return ok1 == ok2 && (!ok1 || p1 == p2)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddWithCone(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0, 0), 0})
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	tbl.Add(FwdRule{P(0x0B000000, 8), 2})
	tbl.Add(FwdRule{P(0x0A0B0000, 16), Drop})

	c := tbl.AddWithCone(FwdRule{P(0x0A0B0C00, 24), 3})
	if c.Region != P(0x0A0B0C00, 24) {
		t.Fatalf("region = %v", c.Region)
	}
	// Covering rules: /0 (port 0), 10/8 (port 1), 10.11/16 (Drop, excluded),
	// plus the new rule's own port 3. 11/8 is disjoint and must not appear.
	if want := []int{0, 1, 3}; !equalInts(c.Ports, want) {
		t.Fatalf("ports = %v, want %v", c.Ports, want)
	}
	if len(tbl.Rules) != 5 {
		t.Fatal("rule not installed")
	}
}

func TestAddWithConeDropRule(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	c := tbl.AddWithCone(FwdRule{P(0x0A0B0000, 16), Drop})
	// A drop rule has no predicate of its own; only the shadowed port 1
	// can change.
	if want := []int{1}; !equalInts(c.Ports, want) {
		t.Fatalf("ports = %v, want %v", c.Ports, want)
	}
}

func TestRemoveWithCone(t *testing.T) {
	var tbl FwdTable
	tbl.Add(FwdRule{P(0, 0), 0})
	tbl.Add(FwdRule{P(0x0A000000, 8), 1})
	tbl.Add(FwdRule{P(0x0A0B0000, 16), 2})
	tbl.Add(FwdRule{P(0x0A0B0C00, 24), 3}) // inside the removed region, keeps winning

	c, ok := tbl.RemoveWithCone(P(0x0A0B0000, 16))
	if !ok {
		t.Fatal("removal must report success")
	}
	if c.Region != P(0x0A0B0000, 16) {
		t.Fatalf("region = %v", c.Region)
	}
	// Removed rule's port 2 plus remaining covering ports 0 and 1; the /24
	// inside the region is unaffected and must not appear.
	if want := []int{0, 1, 2}; !equalInts(c.Ports, want) {
		t.Fatalf("ports = %v, want %v", c.Ports, want)
	}

	if c, ok := tbl.RemoveWithCone(P(0x0A0B0000, 16)); ok || len(c.Ports) != 0 {
		t.Fatalf("second removal must be an empty no-op cone, got %v ok=%v", c, ok)
	}
}

// TestConeSoundness checks the cone contract by brute force: after a random
// mutation, every IP whose lookup result changed lies inside the region, and
// every port that gained or lost any sampled IP is listed in the cone.
func TestConeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var tbl FwdTable
		for i := 0; i < 30; i++ {
			port := rng.Intn(6) - 1 // occasionally Drop
			tbl.Add(FwdRule{P(rng.Uint32()&0x0F0F0000, rng.Intn(20)), port})
		}
		before := tbl
		before.Rules = append([]FwdRule(nil), tbl.Rules...)

		var cone Cone
		if rng.Intn(2) == 0 {
			cone = tbl.AddWithCone(FwdRule{P(rng.Uint32()&0x0F0F0000, rng.Intn(20)), rng.Intn(6) - 1})
		} else if len(tbl.Rules) > 0 {
			victim := tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix
			var ok bool
			cone, ok = tbl.RemoveWithCone(victim)
			if !ok {
				t.Fatal("removing an existing prefix must succeed")
			}
		}
		listed := map[int]bool{}
		for _, p := range cone.Ports {
			listed[p] = true
		}
		for s := 0; s < 2000; s++ {
			ip := rng.Uint32() & 0x0F0FFFFF
			p1, ok1 := before.Lookup(ip)
			p2, ok2 := tbl.Lookup(ip)
			if p1 == p2 && ok1 == ok2 {
				continue
			}
			if !cone.Region.Matches(ip) {
				t.Fatalf("trial %d: ip %08x changed outside region %v", trial, ip, cone.Region)
			}
			if ok1 && !listed[p1] {
				t.Fatalf("trial %d: port %d lost ip %08x but is not in cone %v", trial, p1, ip, cone.Ports)
			}
			if ok2 && !listed[p2] {
				t.Fatalf("trial %d: port %d gained ip %08x but is not in cone %v", trial, p2, ip, cone.Ports)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
