package bdd

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the stream decoder. Load must never
// panic and never build non-canonical state: it either returns roots in
// a DD that still satisfies all structural invariants, or a typed error.
// Seeds cover the valid encodings (so mutations explore near-valid
// corruptions) plus each rejection class from TestLoadErrorPaths.
func FuzzLoad(f *testing.F) {
	seedDD := New(8)
	fn := seedDD.And(seedDD.Var(0), seedDD.Or(seedDD.Var(3), seedDD.NVar(5)))
	var buf bytes.Buffer
	if err := seedDD.Save(&buf, fn, seedDD.Not(fn), True); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-3]) // truncated root table
	f.Add(buf.Bytes()[:7])                  // truncated header
	f.Add([]byte("BDD1"))
	f.Add([]byte("XYZ1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(stream(8, 1, 1, 9, 0, 1, 2))       // level out of range
	f.Add(stream(8, 1, 0, 0, 1, 1))          // redundant node
	f.Add(stream(8, 2, 0, 2, 0, 1, 2, 2, 1)) // non-increasing level
	f.Add(stream(8, ^uint32(0), 0))          // hostile node count
	f.Add(stream(8, 0, ^uint32(0)))          // hostile root count
	f.Fuzz(func(t *testing.T, in []byte) {
		d := New(8)
		roots, err := d.Load(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVarMismatch) {
				t.Fatalf("untyped Load error: %v", err)
			}
			return
		}
		for _, r := range roots {
			if r < 0 || int(r) >= len(d.nodes) {
				t.Fatalf("root %d out of store range", r)
			}
			// Every accepted root must evaluate without faulting.
			d.EvalBits(r, []byte{0xA5})
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("invariants after successful load: %v", err)
		}
	})
}

// FuzzFromRange cross-checks the range-to-prefix decomposition against
// direct comparison for arbitrary bounds and probes.
func FuzzFromRange(f *testing.F) {
	f.Add(uint16(0), uint16(65535), uint16(80))
	f.Add(uint16(80), uint16(80), uint16(80))
	f.Add(uint16(1024), uint16(65535), uint16(1023))
	f.Add(uint16(1), uint16(65534), uint16(65535))
	d := New(16)
	f.Fuzz(func(t *testing.T, lo, hi, probe uint16) {
		if lo > hi {
			lo, hi = hi, lo
		}
		r := d.FromRange(0, uint64(lo), uint64(hi), 16)
		bits := []byte{byte(probe >> 8), byte(probe)}
		want := probe >= lo && probe <= hi
		if got := d.EvalBits(r, bits); got != want {
			t.Fatalf("range [%d,%d] probe %d: got %v want %v", lo, hi, probe, got, want)
		}
		if got, want := d.SatCount(r), float64(int(hi)-int(lo)+1); got != want {
			t.Fatalf("range [%d,%d]: SatCount %v want %v", lo, hi, got, want)
		}
	})
}

// FuzzTernary checks FromTernary against character-by-character matching.
func FuzzTernary(f *testing.F) {
	f.Add("10**01", uint16(0b1011010000000000))
	f.Add("****************", uint16(0))
	f.Add("0000000000000000", uint16(1))
	d := New(16)
	f.Fuzz(func(t *testing.T, pattern string, probe uint16) {
		if len(pattern) > 16 {
			pattern = pattern[:16]
		}
		for _, c := range []byte(pattern) {
			if c != '0' && c != '1' && c != '*' {
				return // invalid patterns are rejected by panic; not fuzzed here
			}
		}
		r := d.FromTernary(pattern)
		bits := []byte{byte(probe >> 8), byte(probe)}
		want := true
		for i := 0; i < len(pattern); i++ {
			bit := probe&(1<<uint(15-i)) != 0
			if pattern[i] == '1' && !bit || pattern[i] == '0' && bit {
				want = false
			}
		}
		if got := d.EvalBits(r, bits); got != want {
			t.Fatalf("pattern %q probe %016b: got %v want %v", pattern, probe, got, want)
		}
	})
}

// FuzzPrefixOps checks the interplay of prefix BDDs under and/or/diff
// against direct membership arithmetic.
func FuzzPrefixOps(f *testing.F) {
	f.Add(uint16(0xAB00), uint8(8), uint16(0xAB40), uint8(10), uint16(0xAB7F))
	d := New(16)
	f.Fuzz(func(t *testing.T, v1 uint16, l1 uint8, v2 uint16, l2 uint8, probe uint16) {
		la, lb := int(l1%17), int(l2%17)
		a := d.FromPrefix(0, uint64(v1), la, 16)
		b := d.FromPrefix(0, uint64(v2), lb, 16)
		inA := maskEq(probe, v1, la)
		inB := maskEq(probe, v2, lb)
		bits := []byte{byte(probe >> 8), byte(probe)}
		if got := d.EvalBits(d.And(a, b), bits); got != (inA && inB) {
			t.Fatal("and mismatch")
		}
		if got := d.EvalBits(d.Or(a, b), bits); got != (inA || inB) {
			t.Fatal("or mismatch")
		}
		if got := d.EvalBits(d.Diff(a, b), bits); got != (inA && !inB) {
			t.Fatal("diff mismatch")
		}
		if got := d.EvalBits(d.Xor(a, b), bits); got != (inA != inB) {
			t.Fatal("xor mismatch")
		}
	})
}

func maskEq(probe, value uint16, length int) bool {
	if length == 0 {
		return true
	}
	mask := uint16(0xFFFF) << uint(16-length)
	return probe&mask == value&mask
}
