package hsa

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"apclassifier/internal/netgen"
)

func TestExprBasics(t *testing.T) {
	e := ParseExpr("10**")
	if e.String() != "10**" {
		t.Fatalf("round trip: %q", e.String())
	}
	if got := e.Count(); got != 4 {
		t.Fatalf("Count = %v, want 4", got)
	}
	all := All(4)
	if all.Count() != 16 || all.String() != "****" {
		t.Fatalf("All: %q %v", all.String(), all.Count())
	}
}

func TestFromPacketBitOrder(t *testing.T) {
	// Packet bytes are MSB-first: bit 0 is the top bit of byte 0.
	e := FromPacket([]byte{0b10100000}, 8)
	if e.String() != "10100000" {
		t.Fatalf("FromPacket = %q", e.String())
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b, want string
		empty      bool
	}{
		{"10**", "1*0*", "100*", false},
		{"10**", "11**", "", true},
		{"****", "1010", "1010", false},
		{"1010", "1010", "1010", false},
		{"0***", "*1*0", "01*0", false},
	}
	for _, c := range cases {
		got, ok := ParseExpr(c.a).Intersect(ParseExpr(c.b))
		if ok == c.empty {
			t.Fatalf("%s ∩ %s: empty=%v, want %v", c.a, c.b, !ok, c.empty)
		}
		if ok && got.String() != c.want {
			t.Fatalf("%s ∩ %s = %s, want %s", c.a, c.b, got.String(), c.want)
		}
	}
}

func TestSubtract(t *testing.T) {
	// (1***) − (10**) = 11**
	diff := ParseExpr("1***").Subtract(ParseExpr("10**"))
	if len(diff) != 1 || diff[0].String() != "11**" {
		t.Fatalf("diff = %v", diff)
	}
	// (****) − (10**): three pieces covering everything but 10**.
	diff = All(4).Subtract(ParseExpr("10**"))
	total := 0.0
	for _, d := range diff {
		total += d.Count()
		if _, ok := d.Intersect(ParseExpr("10**")); ok {
			t.Fatalf("piece %s overlaps subtrahend", d.String())
		}
	}
	if total != 12 {
		t.Fatalf("sum of pieces = %v, want 12", total)
	}
	// Subtracting a disjoint expression is identity.
	diff = ParseExpr("0***").Subtract(ParseExpr("1***"))
	if len(diff) != 1 || diff[0].String() != "0***" {
		t.Fatalf("disjoint subtract = %v", diff)
	}
	// Subtracting a superset leaves nothing.
	if diff := ParseExpr("10**").Subtract(ParseExpr("1***")); len(diff) != 0 {
		t.Fatalf("subset minus superset = %v", diff)
	}
}

func TestSubtractRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nbits = 10
	randExpr := func() Expr {
		s := make([]byte, nbits)
		for i := range s {
			s[i] = "01*"[rng.Intn(3)]
		}
		return ParseExpr(string(s))
	}
	member := func(e Expr, v uint) bool {
		p := []byte{byte(v >> 2), byte(v << 6)}
		pt := FromPacket(p, nbits)
		_, ok := e.Intersect(pt)
		return ok
	}
	for trial := 0; trial < 100; trial++ {
		a, b := randExpr(), randExpr()
		diff := a.Subtract(b)
		for v := uint(0); v < 1<<nbits; v++ {
			want := member(a, v) && !member(b, v)
			got := false
			for _, d := range diff {
				if member(d, v) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("trial %d: (%s − %s) membership of %010b: got %v want %v",
					trial, a.String(), b.String(), v, got, want)
			}
		}
	}
}

func TestRangePrefixes(t *testing.T) {
	for _, c := range []struct{ lo, hi uint64 }{
		{0, 65535}, {80, 80}, {1024, 65535}, {100, 1000}, {1, 65534},
	} {
		parts := rangePrefixes(c.lo, c.hi, 16)
		covered := 0.0
		for _, p := range parts {
			covered += float64(uint64(1) << uint(16-p.length))
		}
		if covered != float64(c.hi-c.lo+1) {
			t.Fatalf("[%d,%d]: covered %v values, want %d", c.lo, c.hi, covered, c.hi-c.lo+1)
		}
	}
}

func TestReachMatchesOracleInternet2(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 11, RuleScale: 0.01})
	n := Compile(ds)
	rng := rand.New(rand.NewSource(11))
	delivered := 0
	for i := 0; i < 300; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := n.Reach(ingress, ds.PacketFromFields(f))
		if len(want.Delivered) != len(got.Delivered) {
			t.Fatalf("probe %d: HSA delivered %v, oracle %v", i, got.Delivered, want.Delivered)
		}
		for j := range want.Delivered {
			if want.Delivered[j] != got.Delivered[j] {
				t.Fatalf("probe %d: HSA delivered %v, oracle %v", i, got.Delivered, want.Delivered)
			}
		}
		if got.RuleChecks == 0 {
			t.Fatal("HSA must do per-rule work")
		}
		if len(want.Delivered) > 0 {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered traffic exercised")
	}
}

func TestReachMatchesOracleStanford(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 12, RuleScale: 0.003})
	n := Compile(ds)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 150; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := n.Reach(ingress, ds.PacketFromFields(f))
		if (len(want.Delivered) > 0) != (len(got.Delivered) > 0) {
			t.Fatalf("probe %d: HSA %v vs oracle %v (fields %+v)", i, got.Delivered, want.Delivered, f)
		}
		if len(want.Delivered) > 0 && want.Delivered[0] != got.Delivered[0] {
			t.Fatalf("probe %d: wrong host", i)
		}
	}
}

func TestReachRuleChecksScaleWithRules(t *testing.T) {
	small := netgen.Internet2Like(netgen.Config{Seed: 13, RuleScale: 0.005})
	big := netgen.Internet2Like(netgen.Config{Seed: 13, RuleScale: 0.02})
	ns, nb := Compile(small), Compile(big)
	rng := rand.New(rand.NewSource(13))
	var cs, cb int
	for i := 0; i < 100; i++ {
		fs := small.RandomFields(rng)
		cs += ns.Reach(rng.Intn(9), small.PacketFromFields(fs)).RuleChecks
		fb := big.RandomFields(rng)
		cb += nb.Reach(rng.Intn(9), big.PacketFromFields(fb)).RuleChecks
	}
	if cb <= cs {
		t.Fatalf("per-query work must grow with rule volume: %d !> %d", cb, cs)
	}
}

// Count returns the number of headers the expression matches (as float64,
// like bdd.SatCount).
func (e Expr) Count() float64 {
	n := 0
	for _, w := range e.wild {
		n += bits.OnesCount64(w)
	}
	return math.Exp2(float64(n))
}

// ParseExpr parses a ternary string produced by Expr.String.
func ParseExpr(s string) Expr {
	e := All(len(s))
	for i, c := range s {
		switch c {
		case '0':
			e.setBit(i, false)
		case '1':
			e.setBit(i, true)
		case '*', 'x':
		default:
			panic(fmt.Sprintf("hsa: bad ternary char %q", c))
		}
	}
	return e
}
