package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

func ipPacket(ip uint32) []byte {
	p := header.IPv4Dst.NewPacket()
	header.IPv4Dst.Set(p, "dstIP", uint64(ip))
	return p
}

func fiveTuplePacket(f rule.Fields) []byte {
	p := header.FiveTuple.NewPacket()
	header.FiveTuple.Set(p, "srcIP", uint64(f.Src))
	header.FiveTuple.Set(p, "dstIP", uint64(f.Dst))
	header.FiveTuple.Set(p, "srcPort", uint64(f.SrcPort))
	header.FiveTuple.Set(p, "dstPort", uint64(f.DstPort))
	header.FiveTuple.Set(p, "proto", uint64(f.Proto))
	return p
}

func TestPrefixBDD(t *testing.T) {
	d := bdd.New(header.IPv4Dst.Bits())
	f := PrefixBDD(d, header.IPv4Dst, "dstIP", rule.P(0x0A000000, 8))
	if !d.EvalBits(f, ipPacket(0x0A123456)) {
		t.Fatal("inside prefix must match")
	}
	if d.EvalBits(f, ipPacket(0x0B123456)) {
		t.Fatal("outside prefix must not match")
	}
}

func TestPortPredicatesBasic(t *testing.T) {
	d := bdd.New(32)
	var tbl rule.FwdTable
	tbl.Add(rule.FwdRule{Prefix: rule.P(0, 0), Port: 0})
	tbl.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	tbl.Add(rule.FwdRule{Prefix: rule.P(0x0A0B0000, 16), Port: 2})
	tbl.Add(rule.FwdRule{Prefix: rule.P(0x0A0C0000, 16), Port: rule.Drop})
	preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, 3)

	cases := []struct {
		ip   uint32
		port int // -1 = no port predicate should match
	}{
		{0xC0000001, 0},
		{0x0A000001, 1},
		{0x0A0B0001, 2},
		{0x0A0C0001, -1}, // shadowed by drop rule
	}
	for _, c := range cases {
		pkt := ipPacket(c.ip)
		for port, p := range preds {
			want := port == c.port
			if got := d.EvalBits(p, pkt); got != want {
				t.Errorf("ip %08x port %d: got %v want %v", c.ip, port, got, want)
			}
		}
	}
}

func TestPortPredicatesAreDisjointAndMatchLookup(t *testing.T) {
	const numPorts = 6
	rng := rand.New(rand.NewSource(9))
	d := bdd.New(32)
	var tbl rule.FwdTable
	// Random table with clustered prefixes so shadowing actually occurs.
	for i := 0; i < 300; i++ {
		length := []int{0, 8, 12, 16, 20, 24, 28, 32}[rng.Intn(8)]
		base := uint32(rng.Intn(4)) << 28 // cluster in 4 blocks
		tbl.Add(rule.FwdRule{
			Prefix: rule.P(base|rng.Uint32()>>4, length),
			Port:   rng.Intn(numPorts+1) - 1, // includes Drop
		})
	}
	preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)

	// Pairwise disjoint: a packet is forwarded to at most one port.
	for i := 0; i < numPorts; i++ {
		for j := i + 1; j < numPorts; j++ {
			if !d.Disjoint(preds[i], preds[j]) {
				t.Fatalf("port predicates %d and %d overlap", i, j)
			}
		}
	}

	// Semantics: predicate membership == LPM lookup result.
	err := quick.Check(func(ip uint32) bool {
		pkt := ipPacket(ip)
		wantPort, ok := tbl.Lookup(ip)
		for port, p := range preds {
			got := d.EvalBits(p, pkt)
			want := ok && port == wantPort
			if got != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatch5BDDAgainstGroundTruth(t *testing.T) {
	d := bdd.New(header.FiveTuple.Bits())
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		m := randomMatch5(rng)
		f := Match5BDD(d, header.FiveTuple, m)
		for probe := 0; probe < 60; probe++ {
			fl := randomFieldsNear(rng, m)
			got := d.EvalBits(f, fiveTuplePacket(fl))
			if got != m.Matches(fl) {
				t.Fatalf("trial %d: match mismatch for %+v vs %+v", trial, m, fl)
			}
		}
	}
}

func randomMatch5(rng *rand.Rand) rule.Match5 {
	m := rule.MatchAll()
	if rng.Intn(2) == 0 {
		m.Src = rule.P(rng.Uint32(), 8*rng.Intn(5))
	}
	if rng.Intn(2) == 0 {
		m.Dst = rule.P(rng.Uint32(), 8*rng.Intn(5))
	}
	if rng.Intn(2) == 0 {
		lo := uint16(rng.Intn(60000))
		m.DstPort = rule.R(lo, lo+uint16(rng.Intn(5000)))
	}
	if rng.Intn(2) == 0 {
		m.Proto = []int{6, 17, 1}[rng.Intn(3)]
	}
	return m
}

// randomFieldsNear biases probes toward the match condition so both
// outcomes are exercised.
func randomFieldsNear(rng *rand.Rand, m rule.Match5) rule.Fields {
	f := rule.Fields{
		Src: rng.Uint32(), Dst: rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		Proto: uint8(rng.Intn(256)),
	}
	if rng.Intn(2) == 0 {
		f.Src = m.Src.Value | rng.Uint32()&^maskOf(m.Src.Length)
	}
	if rng.Intn(2) == 0 {
		f.Dst = m.Dst.Value | rng.Uint32()&^maskOf(m.Dst.Length)
	}
	if rng.Intn(2) == 0 && m.DstPort.Hi >= m.DstPort.Lo {
		f.DstPort = m.DstPort.Lo + uint16(rng.Intn(int(m.DstPort.Hi-m.DstPort.Lo)+1))
	}
	if rng.Intn(2) == 0 && m.Proto != rule.AnyProto {
		f.Proto = uint8(m.Proto)
	}
	return f
}

func maskOf(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << uint(32-length)
}

func TestACLPredicateFirstMatch(t *testing.T) {
	d := bdd.New(header.FiveTuple.Bits())
	acl := &rule.ACL{
		Rules: []rule.ACLRule{
			{Match: rule.Match5{Src: rule.P(0x0A000000, 8), SrcPort: rule.AnyPort, DstPort: rule.AnyPort, Proto: rule.AnyProto}, Action: rule.Deny},
			{Match: rule.Match5{Src: rule.P(0x0A0B0000, 16), SrcPort: rule.AnyPort, DstPort: rule.AnyPort, Proto: rule.AnyProto}, Action: rule.Permit},
			{Match: rule.MatchAll(), Action: rule.Permit},
		},
		Default: rule.Deny,
	}
	p := ACLPredicate(d, header.FiveTuple, acl)
	// The shadowed permit must not leak through the earlier deny.
	if d.EvalBits(p, fiveTuplePacket(rule.Fields{Src: 0x0A0B0001})) {
		t.Fatal("shadowed permit leaked")
	}
	if !d.EvalBits(p, fiveTuplePacket(rule.Fields{Src: 0x0B000001})) {
		t.Fatal("catch-all permit missing")
	}
}

func TestACLPredicateQuick(t *testing.T) {
	d := bdd.New(header.FiveTuple.Bits())
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		acl := &rule.ACL{Default: rule.Action(rng.Intn(2) == 0)}
		for i := 0; i < 20; i++ {
			acl.Rules = append(acl.Rules, rule.ACLRule{
				Match:  randomMatch5(rng),
				Action: rule.Action(rng.Intn(2) == 0),
			})
		}
		p := ACLPredicate(d, header.FiveTuple, acl)
		for probe := 0; probe < 200; probe++ {
			fl := randomFieldsNear(rng, acl.Rules[rng.Intn(len(acl.Rules))].Match)
			if d.EvalBits(p, fiveTuplePacket(fl)) != acl.Allows(fl) {
				t.Fatalf("trial %d: ACL predicate disagrees with Allows for %+v", trial, fl)
			}
		}
	}
}

func TestAtomsSimple(t *testing.T) {
	// The paper's Fig. 1: three overlapping predicates give five atoms.
	d := bdd.New(8)
	p1 := d.FromPrefix(0, 0b00000000, 2, 8)                                          // 00******
	p2 := d.Or(d.FromPrefix(0, 0b01000000, 2, 8), d.FromPrefix(0, 0b10000000, 2, 8)) // 01|10
	p3 := d.Or(d.FromPrefix(0, 0b10000000, 2, 8), d.FromPrefix(0, 0b11000000, 3, 8)) // 10|110
	preds := []bdd.Ref{p1, p2, p3}
	a := Compute(d, preds)
	if err := a.Verify(preds); err != nil {
		t.Fatal(err)
	}
	// p1 disjoint from p2,p3; p2∧p3 = 10******; expect atoms:
	// p1, p2∧¬p3 (01), p2∧p3 (10), ¬p1∧¬p2∧p3 (110), rest (111) → 5 atoms.
	if a.N() != 5 {
		t.Fatalf("atom count = %d, want 5", a.N())
	}
}

func TestAtomsVerifyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := bdd.New(16)
	var preds []bdd.Ref
	for i := 0; i < 25; i++ {
		preds = append(preds, d.FromPrefix(0, uint64(rng.Uint32()>>16), rng.Intn(9), 16))
	}
	a := Compute(d, preds)
	if err := a.Verify(preds); err != nil {
		t.Fatal(err)
	}
	if a.N() < 2 {
		t.Fatalf("expected multiple atoms, got %d", a.N())
	}
}

func TestAtomsMembershipMatchesImplication(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	d := bdd.New(16)
	var preds []bdd.Ref
	for i := 0; i < 15; i++ {
		preds = append(preds, d.FromPrefix(0, uint64(rng.Uint32()>>16), rng.Intn(10), 16))
	}
	a := Compute(d, preds)
	for i, atom := range a.List {
		for j, p := range preds {
			implies := d.Implies(atom, p)
			disjoint := d.Disjoint(atom, p)
			if !implies && !disjoint {
				t.Fatalf("atom %d straddles predicate %d — not atomic", i, j)
			}
			if a.Member[i].Get(j) != implies {
				t.Fatalf("membership bit (%d,%d) = %v, implication = %v", i, j, a.Member[i].Get(j), implies)
			}
		}
	}
}

func TestRSets(t *testing.T) {
	d := bdd.New(8)
	p1 := d.FromPrefix(0, 0b00000000, 1, 8)
	p2 := d.FromPrefix(0, 0b00000000, 2, 8) // subset of p1
	preds := []bdd.Ref{p1, p2}
	a := Compute(d, preds)
	rs := [][]int32{a.RSet(0).Slice(), a.RSet(1).Slice()}
	// R(p2) ⊂ R(p1) since p2 ⇒ p1.
	in := func(set []int32, x int32) bool {
		for _, v := range set {
			if v == x {
				return true
			}
		}
		return false
	}
	for _, atom := range rs[1] {
		if !in(rs[0], atom) {
			t.Fatalf("atom %d in R(p2) but not R(p1)", atom)
		}
	}
	if len(rs[1]) >= len(rs[0]) {
		t.Fatalf("|R(p2)|=%d should be < |R(p1)|=%d", len(rs[1]), len(rs[0]))
	}
	// Rebuild each predicate from its atom set.
	for j, p := range preds {
		or := bdd.False
		for _, atom := range rs[j] {
			or = d.Or(or, a.List[atom])
		}
		if or != p {
			t.Fatalf("predicate %d != disjunction of R set", j)
		}
	}
}

func TestClassifyLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := bdd.New(16)
	var preds []bdd.Ref
	for i := 0; i < 12; i++ {
		preds = append(preds, d.FromPrefix(0, uint64(rng.Uint32()>>16), 1+rng.Intn(8), 16))
	}
	a := Compute(d, preds)
	for trial := 0; trial < 500; trial++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		id := a.ClassifyLinear(pkt)
		if id < 0 {
			t.Fatal("every packet belongs to exactly one atom")
		}
		// Exactly one atom matches.
		count := 0
		for _, atom := range a.List {
			if d.EvalBits(atom, pkt) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("packet matched %d atoms", count)
		}
	}
}

func TestSamplePacket(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := bdd.New(16)
	preds := []bdd.Ref{
		d.FromPrefix(0, 0xAB00, 8, 16),
		d.FromPrefix(0, 0xAB40, 10, 16),
		d.FromRange(0, 100, 20000, 16),
	}
	a := Compute(d, preds)
	for i := range a.List {
		for k := 0; k < 20; k++ {
			pkt := a.SamplePacket(i, 2, rng)
			if got := a.ClassifyLinear(pkt); got != i {
				t.Fatalf("sampled packet for atom %d classified as %d", i, got)
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d should start clear", i)
		}
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	b.Set(64, false)
	if b.Get(64) || !b.Get(63) || !b.Get(127) {
		t.Fatal("Set(false) must only clear its own bit")
	}
	c := b.Clone(200)
	c.Set(0, false)
	if !b.Get(0) {
		t.Fatal("Clone must not alias")
	}
	if !c.Get(127) {
		t.Fatal("Clone must preserve bits")
	}
}

func TestSingleAtomWhenNoPredicates(t *testing.T) {
	d := bdd.New(8)
	a := Compute(d, nil)
	if a.N() != 1 || a.List[0] != bdd.True {
		t.Fatalf("no predicates → single atom True, got %d atoms", a.N())
	}
}

func TestDuplicatePredicatesDoNotSplit(t *testing.T) {
	d := bdd.New(8)
	p := d.FromPrefix(0, 0x80, 1, 8)
	a := Compute(d, []bdd.Ref{p, p, p})
	if a.N() != 2 {
		t.Fatalf("duplicated predicate must still yield 2 atoms, got %d", a.N())
	}
	if err := a.Verify([]bdd.Ref{p, p, p}); err != nil {
		t.Fatal(err)
	}
}
