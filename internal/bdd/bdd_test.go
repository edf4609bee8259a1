package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// brute evaluates a formula over nvars variables for every assignment and
// compares against the BDD, proving functional equality.
func assertEqualFunc(t *testing.T, d *DD, f Ref, nvars int, want func(a uint) bool) {
	t.Helper()
	for a := uint(0); a < 1<<uint(nvars); a++ {
		got := d.Eval(f, func(i int) bool { return a&(1<<uint(i)) != 0 })
		if got != want(a) {
			t.Fatalf("assignment %0*b: got %v, want %v", nvars, a, got, want(a))
		}
	}
}

func TestTerminals(t *testing.T) {
	d := New(4)
	if d.Eval(True, func(int) bool { return false }) != true {
		t.Fatal("True must evaluate to true")
	}
	if d.Eval(False, func(int) bool { return true }) != false {
		t.Fatal("False must evaluate to false")
	}
	if d.Size() != 2 {
		t.Fatalf("fresh DD size = %d, want 2", d.Size())
	}
}

func TestVarAndNVar(t *testing.T) {
	d := New(3)
	for i := 0; i < 3; i++ {
		i := i
		assertEqualFunc(t, d, d.Var(i), 3, func(a uint) bool { return a&(1<<uint(i)) != 0 })
		assertEqualFunc(t, d, d.NVar(i), 3, func(a uint) bool { return a&(1<<uint(i)) == 0 })
	}
}

func TestCanonicity(t *testing.T) {
	d := New(4)
	// Two different derivations of the same function must share the Ref.
	a := d.And(d.Var(0), d.Var(1))
	b := d.Not(d.Or(d.Not(d.Var(0)), d.Not(d.Var(1)))) // De Morgan
	if a != b {
		t.Fatalf("canonical forms differ: %d vs %d", a, b)
	}
	x := d.Xor(d.Var(2), d.Var(3))
	y := d.Or(d.And(d.Var(2), d.Not(d.Var(3))), d.And(d.Not(d.Var(2)), d.Var(3)))
	if x != y {
		t.Fatalf("xor expansions differ: %d vs %d", x, y)
	}
}

func TestBasicOps(t *testing.T) {
	d := New(4)
	v := []Ref{d.Var(0), d.Var(1), d.Var(2), d.Var(3)}
	cases := []struct {
		name string
		f    Ref
		want func(a uint) bool
	}{
		{"and", d.And(v[0], v[1]), func(a uint) bool { return a&1 != 0 && a&2 != 0 }},
		{"or", d.Or(v[0], v[2]), func(a uint) bool { return a&1 != 0 || a&4 != 0 }},
		{"xor", d.Xor(v[1], v[3]), func(a uint) bool { return (a&2 != 0) != (a&8 != 0) }},
		{"diff", d.Diff(v[0], v[1]), func(a uint) bool { return a&1 != 0 && a&2 == 0 }},
		{"not", d.Not(v[2]), func(a uint) bool { return a&4 == 0 }},
		{"ite", d.Or(d.And(v[0], v[1]), d.And(d.Not(v[0]), v[2])), func(a uint) bool {
			if a&1 != 0 {
				return a&2 != 0
			}
			return a&4 != 0
		}},
		{"andn", d.AndN(v[0], v[1], v[2]), func(a uint) bool { return a&7 == 7 }},
		{"orn", d.OrN(v[1], v[2], v[3]), func(a uint) bool { return a&14 != 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { assertEqualFunc(t, d, c.f, 4, c.want) })
	}
}

// formula is a random boolean expression tree used to fuzz the engine.
type formula struct {
	op       byte // 'v' leaf, '&', '|', '^', '!', '?'
	v        int
	l, r, ri *formula
}

func genFormula(rng *rand.Rand, depth, nvars int) *formula {
	if depth == 0 || rng.Intn(3) == 0 {
		return &formula{op: 'v', v: rng.Intn(nvars)}
	}
	switch rng.Intn(5) {
	case 0:
		return &formula{op: '&', l: genFormula(rng, depth-1, nvars), r: genFormula(rng, depth-1, nvars)}
	case 1:
		return &formula{op: '|', l: genFormula(rng, depth-1, nvars), r: genFormula(rng, depth-1, nvars)}
	case 2:
		return &formula{op: '^', l: genFormula(rng, depth-1, nvars), r: genFormula(rng, depth-1, nvars)}
	case 3:
		return &formula{op: '!', l: genFormula(rng, depth-1, nvars)}
	default:
		return &formula{op: '?', l: genFormula(rng, depth-1, nvars), r: genFormula(rng, depth-1, nvars), ri: genFormula(rng, depth-1, nvars)}
	}
}

func (f *formula) build(d *DD) Ref {
	switch f.op {
	case 'v':
		return d.Var(f.v)
	case '&':
		return d.And(f.l.build(d), f.r.build(d))
	case '|':
		return d.Or(f.l.build(d), f.r.build(d))
	case '^':
		return d.Xor(f.l.build(d), f.r.build(d))
	case '!':
		return d.Not(f.l.build(d))
	default:
		c := f.l.build(d)
		return d.Or(d.And(c, f.r.build(d)), d.And(d.Not(c), f.ri.build(d)))
	}
}

func (f *formula) eval(a uint) bool {
	switch f.op {
	case 'v':
		return a&(1<<uint(f.v)) != 0
	case '&':
		return f.l.eval(a) && f.r.eval(a)
	case '|':
		return f.l.eval(a) || f.r.eval(a)
	case '^':
		return f.l.eval(a) != f.r.eval(a)
	case '!':
		return !f.l.eval(a)
	default:
		if f.l.eval(a) {
			return f.r.eval(a)
		}
		return f.ri.eval(a)
	}
}

func TestRandomFormulasMatchTruthTable(t *testing.T) {
	const nvars = 6
	rng := rand.New(rand.NewSource(42))
	d := New(nvars)
	for trial := 0; trial < 200; trial++ {
		f := genFormula(rng, 5, nvars)
		r := f.build(d)
		for a := uint(0); a < 1<<nvars; a++ {
			if d.Eval(r, func(i int) bool { return a&(1<<uint(i)) != 0 }) != f.eval(a) {
				t.Fatalf("trial %d assignment %06b mismatch", trial, a)
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after fuzzing: %v", err)
	}
}

func TestAlgebraicLawsQuick(t *testing.T) {
	const nvars = 8
	d := New(nvars)
	rng := rand.New(rand.NewSource(7))
	randF := func() Ref { return genFormula(rng, 4, nvars).build(d) }
	check := func(name string, law func() bool) {
		if err := quick.Check(func(uint8) bool { return law() }, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("law %s: %v", name, err)
		}
	}
	check("double negation", func() bool { f := randF(); return d.Not(d.Not(f)) == f })
	check("and idempotent", func() bool { f := randF(); return d.And(f, f) == f })
	check("or idempotent", func() bool { f := randF(); return d.Or(f, f) == f })
	check("excluded middle", func() bool { f := randF(); return d.Or(f, d.Not(f)) == True })
	check("contradiction", func() bool { f := randF(); return d.And(f, d.Not(f)) == False })
	check("de morgan", func() bool {
		f, g := randF(), randF()
		return d.Not(d.And(f, g)) == d.Or(d.Not(f), d.Not(g))
	})
	check("distribution", func() bool {
		f, g, h := randF(), randF(), randF()
		return d.And(f, d.Or(g, h)) == d.Or(d.And(f, g), d.And(f, h))
	})
	check("diff as and-not", func() bool {
		f, g := randF(), randF()
		return d.Diff(f, g) == d.And(f, d.Not(g))
	})
	check("implies reflexive", func() bool { f := randF(); return d.Implies(f, f) })
	check("absorption", func() bool {
		f, g := randF(), randF()
		return d.Or(f, d.And(f, g)) == f && d.And(f, d.Or(f, g)) == f
	})
}

func TestSatCount(t *testing.T) {
	d := New(5)
	cases := []struct {
		name string
		f    Ref
		want float64
	}{
		{"false", False, 0},
		{"true", True, 32},
		{"single var", d.Var(0), 16},
		{"and two", d.And(d.Var(0), d.Var(1)), 8},
		{"or two", d.Or(d.Var(0), d.Var(1)), 24},
		{"xor", d.Xor(d.Var(3), d.Var(4)), 16},
		{"all vars", d.AndN(d.Var(0), d.Var(1), d.Var(2), d.Var(3), d.Var(4)), 1},
	}
	for _, c := range cases {
		if got := d.SatCount(c.f); got != c.want {
			t.Errorf("%s: SatCount = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSatCountMatchesBruteForce(t *testing.T) {
	const nvars = 7
	d := New(nvars)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		f := genFormula(rng, 5, nvars)
		r := f.build(d)
		want := 0
		for a := uint(0); a < 1<<nvars; a++ {
			if f.eval(a) {
				want++
			}
		}
		if got := d.SatCount(r); got != float64(want) {
			t.Fatalf("trial %d: SatCount = %v, want %d", trial, got, want)
		}
	}
}

func TestAnySat(t *testing.T) {
	const nvars = 6
	d := New(nvars)
	if d.AnySat(False) != nil {
		t.Fatal("AnySat(False) must be nil")
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		f := genFormula(rng, 5, nvars)
		r := f.build(d)
		if r == False {
			continue
		}
		a := d.AnySat(r)
		if a == nil {
			t.Fatalf("trial %d: no assignment for satisfiable BDD", trial)
		}
		// Any completion of don't-cares must satisfy f; check the all-zero one.
		var packed uint
		for i, v := range a {
			if v == 1 {
				packed |= 1 << uint(i)
			}
		}
		if !f.eval(packed) {
			t.Fatalf("trial %d: AnySat assignment %v does not satisfy formula", trial, a)
		}
	}
}

func TestEvalBits(t *testing.T) {
	d := New(16)
	f := d.AndN(d.Var(0), d.NVar(5), d.Var(12))
	bits := make([]byte, 2)
	set := func(i int) { bits[i/8] |= 0x80 >> uint(i%8) }
	set(0)
	set(12)
	if !d.EvalBits(f, bits) {
		t.Fatal("expected match")
	}
	set(5)
	if d.EvalBits(f, bits) {
		t.Fatal("expected mismatch after setting bit 5")
	}
}

func TestEvalBitsAgreesWithEval(t *testing.T) {
	const nvars = 24
	d := New(nvars)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		f := genFormula(rng, 6, nvars).build(d)
		bits := make([]byte, 3)
		rng.Read(bits)
		want := d.Eval(f, func(i int) bool { return bits[i/8]&(0x80>>uint(i%8)) != 0 })
		if got := d.EvalBits(f, bits); got != want {
			t.Fatalf("trial %d: EvalBits=%v Eval=%v", trial, got, want)
		}
	}
}

func TestFromPrefix(t *testing.T) {
	d := New(32)
	// 10.0.0.0/8 at offset 0 over a 32-bit field.
	f := d.FromPrefix(0, 0x0A000000, 8, 32)
	match := func(ip uint32) bool {
		bits := []byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
		return d.EvalBits(f, bits)
	}
	if !match(0x0A000001) || !match(0x0AFFFFFF) {
		t.Fatal("addresses inside 10.0.0.0/8 must match")
	}
	if match(0x0B000000) || match(0x09FFFFFF) {
		t.Fatal("addresses outside 10.0.0.0/8 must not match")
	}
	if got, want := d.SatCount(f), float64(uint64(1)<<24); got != want {
		t.Fatalf("SatCount = %v, want %v", got, want)
	}
	if d.FromPrefix(0, 0, 0, 32) != True {
		t.Fatal("zero-length prefix must be True")
	}
	if d.NodeCount(f) != 8 {
		t.Fatalf("a /8 must be an 8-node chain, got %d", d.NodeCount(f))
	}
}

func TestFromValue(t *testing.T) {
	d := New(16)
	f := d.FromValue(0, 0xBEEF, 16)
	if got := d.SatCount(f); got != 1 {
		t.Fatalf("exact value SatCount = %v, want 1", got)
	}
	if !d.EvalBits(f, []byte{0xBE, 0xEF}) {
		t.Fatal("exact value must match its own bits")
	}
	if d.EvalBits(f, []byte{0xBE, 0xEE}) {
		t.Fatal("different value must not match")
	}
}

func TestFromRange(t *testing.T) {
	d := New(16)
	check := func(lo, hi uint64) {
		f := d.FromRange(0, lo, hi, 16)
		if got, want := d.SatCount(f), float64(hi-lo+1); got != want {
			t.Fatalf("range [%d,%d]: SatCount = %v, want %v", lo, hi, got, want)
		}
		for _, probe := range []uint64{lo, hi, (lo + hi) / 2, lo - 1, hi + 1} {
			if probe > 0xFFFF {
				continue
			}
			bits := []byte{byte(probe >> 8), byte(probe)}
			want := probe >= lo && probe <= hi
			if lo == 0 && probe == lo-1 { // underflow wrapped
				continue
			}
			if got := d.EvalBits(f, bits); got != want {
				t.Fatalf("range [%d,%d] probe %d: got %v, want %v", lo, hi, probe, got, want)
			}
		}
	}
	check(0, 0xFFFF)
	check(80, 80)
	check(1024, 65535)
	check(0, 1023)
	check(53, 1000)
	check(1, 0xFFFE)
	if d.FromRange(0, 5, 4, 16) != False {
		t.Fatal("empty range must be False")
	}
}

func TestFromRangeQuick(t *testing.T) {
	d := New(12)
	err := quick.Check(func(a, b uint16, probe uint16) bool {
		lo, hi := uint64(a&0xFFF), uint64(b&0xFFF)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := uint64(probe & 0xFFF)
		f := d.FromRange(0, lo, hi, 12)
		bits := []byte{byte(p >> 4), byte(p << 4)}
		return d.EvalBits(f, bits) == (p >= lo && p <= hi)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFromTernary(t *testing.T) {
	d := New(8)
	f := d.FromTernary("10**01")
	for a := uint(0); a < 256; a++ {
		bits := []byte{byte(a)}
		want := bits[0]&0x80 != 0 && bits[0]&0x40 == 0 && bits[0]&0x08 == 0 && bits[0]&0x04 != 0
		if got := d.EvalBits(f, bits); got != want {
			t.Fatalf("pattern 10**01 on %08b: got %v want %v", a, got, want)
		}
	}
	if d.FromTernary("") != True {
		t.Fatal("empty ternary pattern must be True")
	}
	if d.FromTernary("********") != True {
		t.Fatal("all-wildcard pattern must be True")
	}
}

func TestGC(t *testing.T) {
	d := New(16)
	kept := d.Retain(d.AndN(d.Var(0), d.Var(1), d.Var(2)))
	temp := d.OrN(d.Var(3), d.Var(4), d.Var(5), d.Var(6))
	_ = temp
	before := d.Size()
	freed := d.GC()
	if freed == 0 {
		t.Fatal("GC should free the unretained OR chain")
	}
	if d.Size() >= before {
		t.Fatalf("size did not shrink: %d -> %d", before, d.Size())
	}
	// The retained function must still be intact and correct.
	assertEqualFunc(t, d, kept, 8, func(a uint) bool { return a&7 == 7 })
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after GC: %v", err)
	}
	// Rebuilding the freed function must work and reuse freed slots.
	re := d.OrN(d.Var(3), d.Var(4), d.Var(5), d.Var(6))
	assertEqualFunc(t, d, re, 8, func(a uint) bool { return a&0x78 != 0 })
}

func TestGCPreservesSharedSubgraphs(t *testing.T) {
	d := New(8)
	shared := d.And(d.Var(6), d.Var(7))
	a := d.Retain(d.Or(d.Var(0), shared))
	b := d.Or(d.Var(1), shared) // unretained, but `shared` is reachable via a
	_ = b
	d.GC()
	if !d.Eval(a, func(i int) bool { return i >= 6 }) {
		t.Fatal("shared subgraph corrupted by GC")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetainRelease(t *testing.T) {
	d := New(8)
	f := d.And(d.Var(0), d.Var(1))
	d.Retain(f)
	d.Retain(f)
	d.Release(f)
	d.GC()
	if d.Eval(f, func(i int) bool { return true }) != true {
		t.Fatal("doubly-retained node must survive one release + GC")
	}
	d.Release(f)
	d.GC()
	// f's slot is now free; rebuilding must give a valid node again.
	g := d.And(d.Var(0), d.Var(1))
	assertEqualFunc(t, d, g, 4, func(a uint) bool { return a&3 == 3 })
}

func TestReleasePanicsOnUnretained(t *testing.T) {
	d := New(4)
	f := d.And(d.Var(0), d.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unretained node must panic")
		}
	}()
	d.Release(f)
}

func TestOperationsAfterGCStayCanonical(t *testing.T) {
	const nvars = 8
	d := New(nvars)
	rng := rand.New(rand.NewSource(23))
	var retained []Ref
	var forms []*formula
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			f := genFormula(rng, 5, nvars)
			r := f.build(d)
			if i%4 == 0 {
				retained = append(retained, d.Retain(r))
				forms = append(forms, f)
			}
		}
		d.GC()
		for i, r := range retained {
			for probe := 0; probe < 16; probe++ {
				a := uint(rng.Intn(1 << nvars))
				if d.Eval(r, func(j int) bool { return a&(1<<uint(j)) != 0 }) != forms[i].eval(a) {
					t.Fatalf("round %d: retained BDD %d corrupted", round, i)
				}
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestNodeCount(t *testing.T) {
	d := New(8)
	if d.NodeCount(True) != 0 || d.NodeCount(False) != 0 {
		t.Fatal("terminals have zero node count")
	}
	if d.NodeCount(d.Var(0)) != 1 {
		t.Fatal("a literal is one node")
	}
	chain := d.AndN(d.Var(0), d.Var(1), d.Var(2), d.Var(3))
	if d.NodeCount(chain) != 4 {
		t.Fatalf("4-literal cube should be 4 nodes, got %d", d.NodeCount(chain))
	}
}

func TestImpliesAndDisjoint(t *testing.T) {
	d := New(8)
	sub := d.FromPrefix(0, 0b10100000, 4, 8)  // 1010****
	sup := d.FromPrefix(0, 0b10000000, 2, 8)  // 10******
	othr := d.FromPrefix(0, 0b01000000, 2, 8) // 01******
	if !d.Implies(sub, sup) {
		t.Fatal("longer prefix must imply shorter covering prefix")
	}
	if d.Implies(sup, sub) {
		t.Fatal("shorter prefix must not imply longer one")
	}
	if !d.Disjoint(sub, othr) || !d.Disjoint(sup, othr) {
		t.Fatal("non-overlapping prefixes must be disjoint")
	}
	if d.Disjoint(sub, sup) {
		t.Fatal("nested prefixes are not disjoint")
	}
}

func TestMemBytesAndSizeGrow(t *testing.T) {
	d := New(32)
	m0, s0 := d.MemBytes(), d.Size()
	for i := 0; i < 1000; i++ {
		d.FromValue(0, uint64(i), 32)
	}
	if d.Size() <= s0 {
		t.Fatal("size must grow after building many values")
	}
	if d.MemBytes() < m0 {
		t.Fatal("MemBytes must not shrink while building")
	}
}

func TestLargeVariableCount(t *testing.T) {
	d := New(104) // 5-tuple layout width
	f := d.AndN(
		d.FromPrefix(0, 0x0A000000, 8, 32),
		d.FromPrefix(32, 0xC0A80000, 16, 32),
		d.FromValue(64, 443, 16),
		d.FromRange(80, 1024, 65535, 16),
		d.FromValue(96, 6, 8),
	)
	if f == False {
		t.Fatal("conjunction of compatible field constraints must be satisfiable")
	}
	a := d.AnySat(f)
	if a == nil {
		t.Fatal("AnySat must find an assignment")
	}
	if got := d.SatCount(f); got <= 0 {
		t.Fatalf("SatCount = %v, want positive", got)
	}
}

func TestOpsCounter(t *testing.T) {
	d := New(16)
	before := d.Stats().Ops
	d.And(d.FromPrefix(0, 0xAB00, 8, 16), d.FromPrefix(0, 0xA000, 4, 16))
	if d.Stats().Ops <= before {
		t.Fatal("apply work must increment the ops counter")
	}
}

func TestNewWithCacheValidation(t *testing.T) {
	d := NewWithCache(8, 1<<10)
	if d.MemBytes() <= 0 {
		t.Fatal("cache-sized DD must report memory")
	}
	for _, bad := range []int{0, -1, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cache size %d must panic", bad)
				}
			}()
			NewWithCache(8, bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("zero variables must panic")
		}
	}()
	New(0)
}

func TestLiveMemBytesShrinksAfterGC(t *testing.T) {
	d := New(32)
	kept := d.Retain(d.FromPrefix(0, 0x0A000000, 8, 32))
	for i := 0; i < 500; i++ {
		d.FromValue(0, uint64(i)*2654435761, 32)
	}
	before := d.LiveMemBytes()
	d.GC()
	after := d.LiveMemBytes()
	if after >= before {
		t.Fatalf("live memory must shrink after GC: %d -> %d", before, after)
	}
	_ = kept
	if d.MemBytes() < after {
		t.Fatal("allocated memory must be at least live memory")
	}
}

func BenchmarkApplyAnd(b *testing.B) {
	d := New(32)
	rng := rand.New(rand.NewSource(1))
	ps := make([]Ref, 256)
	for i := range ps {
		ps[i] = d.Retain(d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.And(ps[i%256], ps[(i*7+3)%256])
	}
}

func BenchmarkEvalBits(b *testing.B) {
	d := New(32)
	f := d.FromPrefix(0, 0x0A0B0000, 16, 32)
	bits := []byte{0x0A, 0x0B, 0xCC, 0xDD}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.EvalBits(f, bits)
	}
}
