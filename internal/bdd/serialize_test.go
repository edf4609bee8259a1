package bdd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// stream hand-crafts a BDD1 stream: header (numVars, numNodes, numRoots)
// followed by raw uint32 words for node records and root indices.
func stream(numVars, numNodes, numRoots uint32, words ...uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	for _, v := range append([]uint32{numVars, numNodes, numRoots}, words...) {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		buf.Write(w[:])
	}
	return buf.Bytes()
}

// TestLoadErrorPaths is the satellite's table-driven malformed-stream
// suite: every rejection class maps to its typed error, and no case may
// leave Load panicking or silently accepting bad state.
func TestLoadErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short magic", []byte("BD"), ErrTruncated},
		{"wrong magic", []byte("XYZ1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), ErrBadMagic},
		{"header cut", []byte("BDD1\x04\x00\x00\x00"), ErrTruncated},
		{"var mismatch", stream(8, 0, 0), ErrVarMismatch},
		{"node record cut", stream(4, 1, 0, 0, 0), ErrTruncated},
		{"promised nodes missing", stream(4, 3, 0, 0, 0, 1), ErrTruncated},
		{"level out of range", stream(4, 1, 0, 4, 0, 1), ErrMalformed},
		{"level huge", stream(4, 1, 0, ^uint32(0), 0, 1), ErrMalformed},
		{"forward low ref", stream(4, 1, 0, 0, 2, 1), ErrMalformed},
		{"forward high ref", stream(4, 1, 0, 0, 0, 3), ErrMalformed},
		{"self low ref", stream(4, 2, 0, 0, 0, 1, 1, 3, 0), ErrMalformed},
		{"redundant node", stream(4, 1, 0, 0, 1, 1), ErrMalformed},
		// Node 0 at level 2, node 1 at level 2 pointing at node 0: the
		// edge does not increase the level.
		{"non-increasing level", stream(4, 2, 0, 2, 0, 1, 2, 2, 1), ErrMalformed},
		// Same, with the child level above the parent's but equal: level
		// 1 node whose child is also level 1.
		{"equal child level", stream(4, 2, 0, 1, 0, 1, 1, 0, 2), ErrMalformed},
		{"root record cut", stream(4, 1, 2, 0, 0, 1, 2), ErrTruncated},
		{"root out of range", stream(4, 1, 1, 0, 0, 1, 3), ErrMalformed},
		// Huge counts must fail on truncation, not allocate first.
		{"huge node count", stream(4, ^uint32(0), 0), ErrTruncated},
		{"huge root count", stream(4, 0, ^uint32(0)), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(4)
			_, err := d.Load(bytes.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Load accepted malformed stream %x", tc.in)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load error = %v, want errors.Is(..., %v)", err, tc.want)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("DD invariants violated after rejected load: %v", err)
			}
		})
	}
}

// TestLoadValidMinimal accepts the smallest well-formed streams so the
// error table above is known to be testing rejections, not a decoder
// that rejects everything.
func TestLoadValidMinimal(t *testing.T) {
	d := New(4)
	// One node: x2 (level 2, low=False, high=True), exported as root.
	roots, err := d.Load(bytes.NewReader(stream(4, 1, 1, 2, 0, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0] != d.Var(2) {
		t.Fatalf("roots = %v, want [%v]", roots, d.Var(2))
	}
	// Zero nodes, terminal roots only.
	roots, err = d.Load(bytes.NewReader(stream(4, 0, 2, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0] != True || roots[1] != False {
		t.Fatalf("terminal roots = %v", roots)
	}
}

// TestViewSaveMatchesDDSave freezes a view and checks its Save emits the
// same bytes as the live DD's for the same roots, and that the stream
// round-trips through a fresh DD to equivalent functions.
func TestViewSaveMatchesDDSave(t *testing.T) {
	d := New(8)
	a := d.And(d.Var(0), d.Or(d.Var(3), d.NVar(5)))
	b := d.Xor(d.Var(1), d.Var(7))
	d.Retain(a)
	d.Retain(b)
	v := d.Freeze()

	var fromDD, fromView bytes.Buffer
	if err := d.Save(&fromDD, a, b); err != nil {
		t.Fatal(err)
	}
	if err := v.Save(&fromView, a, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDD.Bytes(), fromView.Bytes()) {
		t.Fatal("View.Save and DD.Save disagree on identical state")
	}

	// A writer growing the DD after the freeze must not change what the
	// view serializes.
	d.And(a, b)
	var after bytes.Buffer
	if err := v.Save(&after, a, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromView.Bytes(), after.Bytes()) {
		t.Fatal("View.Save changed after the live DD grew")
	}

	d2 := New(8)
	roots, err := d2.Load(bytes.NewReader(fromView.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 256; probe++ {
		bits := []byte{byte(probe)}
		if d2.EvalBits(roots[0], bits) != d.EvalBits(a, bits) ||
			d2.EvalBits(roots[1], bits) != d.EvalBits(b, bits) {
			t.Fatalf("round-tripped function differs at probe %08b", probe)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	const nvars = 12
	d := New(nvars)
	rng := rand.New(rand.NewSource(63))
	var roots []Ref
	var forms []*formula
	for i := 0; i < 10; i++ {
		form := genFormula(rng, 6, nvars)
		roots = append(roots, form.build(d))
		forms = append(forms, form)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf, roots...); err != nil {
		t.Fatal(err)
	}

	// Load into a fresh DD.
	d2 := New(nvars)
	loaded, err := d2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(roots) {
		t.Fatalf("loaded %d roots, want %d", len(loaded), len(roots))
	}
	for i, r := range loaded {
		for a := uint(0); a < 1<<nvars; a += 37 {
			got := d2.Eval(r, func(j int) bool { return a&(1<<uint(j)) != 0 })
			if got != forms[i].eval(a) {
				t.Fatalf("root %d: loaded function differs at %012b", i, a)
			}
		}
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Loading into the original DD must give back identical refs
	// (canonicalization against existing nodes).
	loaded2, err := d.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if loaded2[i] != roots[i] {
			t.Fatalf("root %d: reload into same DD gave different ref", i)
		}
	}
}

func TestSaveLoadTerminals(t *testing.T) {
	d := New(4)
	var buf bytes.Buffer
	if err := d.Save(&buf, True, False); err != nil {
		t.Fatal(err)
	}
	roots, err := New(4).Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != True || roots[1] != False {
		t.Fatalf("terminal roots = %v", roots)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	d := New(4)
	cases := [][]byte{
		[]byte("XYZ1\x00\x00\x00\x00"),
		[]byte("BDD1"),
		{},
	}
	for i, c := range cases {
		if _, err := d.Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Wrong variable count.
	var buf bytes.Buffer
	if err := New(8).Save(&buf, True); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(&buf); err == nil {
		t.Fatal("variable-count mismatch must fail")
	}
}
