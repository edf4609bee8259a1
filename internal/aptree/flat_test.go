package aptree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"apclassifier/internal/bdd"
)

// flatTestManager builds a manager whose predicate set exercises every
// lowering tier: prefix minterms (mask nodes), unions of short and of long
// prefixes (cube nodes), and dense xor predicates whose satisfying-path
// count blows the cube cap (frozen-view fallback).
func flatTestManager(t *testing.T, seed int64) (*Manager, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewManager(32, MethodOAPT)
	m.Update(func(tx *Tx) {
		d := tx.DD()
		for i := 0; i < 12; i++ { // minterms
			tx.Add(d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32))
		}
		for i := 0; i < 8; i++ { // few-bit unions: cube lists
			a := d.FromPrefix(0, uint64(rng.Uint32()), 3+rng.Intn(6), 32)
			b := d.FromPrefix(0, uint64(rng.Uint32()), 3+rng.Intn(6), 32)
			tx.Add(d.Or(a, b))
		}
		for i := 0; i < 4; i++ { // wide unions of long prefixes: cube lists
			a := d.FromPrefix(0, uint64(rng.Uint32()), 20+rng.Intn(12), 32)
			b := d.FromPrefix(0, uint64(rng.Uint32()), 20+rng.Intn(12), 32)
			tx.Add(d.Or(a, b))
		}
		for i := 0; i < 2; i++ { // dense xors: 2^13 satisfying paths, fallback
			x := d.FromPrefix(14*i, 1, 1, 1)
			for j := 1; j < 14; j++ {
				x = d.Xor(x, d.FromPrefix(14*i+j, 1, 1, 1))
			}
			tx.Add(x)
		}
	})
	return m, rng
}

// TestFlatMatchesPointer is the package-level differential: on a
// predicate set hitting all three lowering tiers, the flat descent must
// return the identical leaf to the pointer descent for random packets —
// single-packet and batched — including after live updates republish and
// recompile the flat form.
func TestFlatMatchesPointer(t *testing.T) {
	m, rng := flatTestManager(t, 11)
	probe := func(label string) {
		t.Helper()
		s := m.Snapshot()
		f := s.Flat()
		if f == nil {
			t.Fatalf("%s: published snapshot has no flat form", label)
		}
		st := f.Stats()
		if st.MaskNodes == 0 || st.CubeNodes == 0 || st.FallbackNodes == 0 {
			t.Fatalf("%s: lowering mix not exercised: %+v", label, st)
		}
		if st.MaskNodes+st.CubeNodes+st.FallbackNodes != st.Nodes {
			t.Fatalf("%s: node kinds do not sum: %+v", label, st)
		}
		pkts := make([][]byte, 257)
		for i := range pkts {
			// Alternate exact-length and overlong packets: the layout is 4
			// bytes, so the tail of an 8-byte packet is dead space both
			// engines must ignore — and the 8-byte form drives the mask
			// nodes' one-load word fast path instead of testSlow.
			pkts[i] = make([]byte, 4+4*(i&1))
			rng.Read(pkts[i])
			want, _ := s.ClassifyPointer(pkts[i])
			if got := f.Classify(pkts[i]); got != want {
				t.Fatalf("%s: pkt %x: flat atom %d, pointer atom %d",
					label, pkts[i], got.AtomID, want.AtomID)
			}
		}
		outF := make([]*Node, len(pkts))
		outP := make([]*Node, len(pkts))
		s.ClassifyBatchWith(&BatchScratch{}, pkts, outF)
		s.ClassifyBatchPointerWith(&BatchScratch{}, pkts, outP)
		for i := range pkts {
			if outF[i] != outP[i] {
				t.Fatalf("%s: batch pkt %d: flat atom %d, pointer atom %d",
					label, i, outF[i].AtomID, outP[i].AtomID)
			}
		}
	}
	probe("initial")
	for round := 0; round < 3; round++ {
		addRandomPredicate(m, rng)
		probe("after update")
	}
	m.Reconstruct(false)
	probe("after reconstruct")
}

// TestFlatLayoutInvariants checks the structural properties the compiler
// guarantees: every child index is in bounds, internal children strictly
// follow their parent in the array (so the descent can never cycle), the
// whole array is reachable from the root with each node and leaf visited
// exactly once, and the leaves enumerate in Tree.Leaves order.
func TestFlatLayoutInvariants(t *testing.T) {
	m, _ := flatTestManager(t, 12)
	s := m.Snapshot()
	f := s.Flat()

	nodeSeen := make([]int, len(f.nodes))
	leafSeen := make([]int, len(f.leaves))
	var walk func(i int32)
	walk = func(i int32) {
		if i < 0 {
			li := int(^i)
			if li >= len(f.leaves) {
				t.Fatalf("leaf index %d out of bounds (%d leaves)", li, len(f.leaves))
			}
			leafSeen[li]++
			return
		}
		if int(i) >= len(f.nodes) {
			t.Fatalf("node index %d out of bounds (%d nodes)", i, len(f.nodes))
		}
		nodeSeen[i]++
		for _, k := range f.nodes[i].kids {
			if k >= 0 && k <= i {
				t.Fatalf("node %d has non-descending internal child %d", i, k)
			}
			walk(k)
		}
	}
	walk(f.root)
	for i, n := range nodeSeen {
		if n != 1 {
			t.Fatalf("flat node %d visited %d times", i, n)
		}
	}
	for i, n := range leafSeen {
		if n != 1 {
			t.Fatalf("flat leaf %d referenced %d times", i, n)
		}
	}
	var want []*Node
	s.Tree().Leaves(func(n *Node) { want = append(want, n) })
	if len(want) != len(f.leaves) {
		t.Fatalf("flat has %d leaves, tree has %d", len(f.leaves), len(want))
	}
	for i := range want {
		if f.leaves[i] != want[i] {
			t.Fatalf("flat leaf %d is not Tree.Leaves entry %d", i, i)
		}
	}
}

// TestFlatLoweringExhaustive enumerates every assignment of a small
// header space and requires each lowering — mask, cubes, and the plans'
// kind selection itself — to agree bit-for-bit with frozen-view BDD
// evaluation. Predicates are built to land deterministically in each
// tier, the few-bit non-minterms (unions and xors of short prefixes, byte
// parity) in whichever of cubes or view their path count selects; every
// plan is then evaluated through a one-node Flat against all 2^16 packets.
func TestFlatLoweringExhaustive(t *testing.T) {
	d := bdd.New(16)
	type tc struct {
		name string
		ref  bdd.Ref
		kind uint8
	}
	short := func(v uint64, l int) bdd.Ref { return d.FromPrefix(0, v<<8, l, 16) }
	// parity of the top n header bits has 2^(n-1) satisfying paths: past
	// the cube cap from n = 8 on, so only the frozen view can evaluate it.
	parity := func(n int) bdd.Ref {
		x := d.FromPrefix(0, 1, 1, 1)
		for j := 1; j < n; j++ {
			x = d.Xor(x, d.FromPrefix(j, 1, 1, 1))
		}
		return x
	}
	cases := []tc{
		{"minterm-short", d.FromPrefix(0, 0xA500, 5, 16), flatMask},
		{"minterm-full", d.FromPrefix(0, 0x1234, 16, 16), flatMask},
		{"minterm-offset", d.FromPrefix(6, 0x2A0, 7, 10), flatMask},
		{"union-short-cubes", d.Or(short(0x40, 3), short(0x90, 5)), flatCubes},
		{"union-12bit-cubes", d.Or(d.FromPrefix(0, 0x0120, 12, 16), d.FromPrefix(0, 0xF300, 9, 16)), flatCubes},
		{"xor-short-cubes", d.Xor(short(0xC0, 2), short(0x30, 4)), flatCubes},
		{"parity-8bit-fallback", parity(8), flatBDD},
		{"union-cubes", d.Or(d.FromPrefix(0, 0x4321, 16, 16), d.FromPrefix(0, 0x8765, 16, 16)), flatCubes},
		{"acl-cubes", d.Or(d.Or(d.FromPrefix(0, 0xAB00, 13, 16), d.FromPrefix(0, 0x1100, 14, 16)), d.FromPrefix(0, 0xF0F0, 16, 16)), flatCubes},
		{"parity-14bit-fallback", parity(14), flatBDD},
	}
	for _, c := range cases {
		d.Retain(c.ref)
	}
	v := d.Freeze()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := lowerPred(v, c.ref)
			if p.kind != c.kind {
				t.Fatalf("lowered to kind %d, want %d", p.kind, c.kind)
			}
			// A one-node Flat whose children are two distinct leaves turns
			// the plan into a directly testable boolean function.
			tleaf, fleaf := &Node{Pred: -1}, &Node{Pred: -1}
			f := &Flat{
				leaves: []*Node{tleaf, fleaf},
				cubes:  p.cubes,
				view:   v,
			}
			f.nodes = []flatNode{{
				kids: [2]int32{^int32(1), ^int32(0)},
				want: binary.LittleEndian.Uint64(p.want[:]),
				mask: binary.LittleEndian.Uint64(p.mask[:]),
				pred: c.ref,
				kind: p.kind,
				n:    p.nb,
				off:  p.base,
			}}
			pkt := make([]byte, 2)
			for a := 0; a < 1<<16; a++ {
				pkt[0], pkt[1] = byte(a>>8), byte(a)
				want := v.EvalBits(c.ref, pkt)
				if got := f.Classify(pkt) == tleaf; got != want {
					t.Fatalf("assignment %04x: lowered eval %v, view eval %v", a, got, want)
				}
			}
		})
	}
}

// TestFlatMintermPlanRejects pins the minterm recognizer's negative
// space: non-minterms and minterms spanning more than 8 probed bytes must
// decline so the wider tiers take over.
func TestFlatMintermPlanRejects(t *testing.T) {
	d := bdd.New(96)
	union := d.Or(d.FromPrefix(0, 0x50000000, 3, 32), d.FromPrefix(0, 0x90000000, 4, 32))
	wide := d.And(d.FromPrefix(0, 1, 2, 8), d.FromPrefix(88, 1, 2, 8)) // bytes 0 and 11
	d.Retain(union)
	d.Retain(wide)
	v := d.Freeze()
	if p := mintermPlan(v, union); p != nil {
		t.Fatal("union of prefixes recognized as a minterm")
	}
	if p := mintermPlan(v, wide); p != nil {
		t.Fatal("11-byte-span minterm accepted into an 8-byte mask window")
	}
	// Its one satisfying path spans the same 11 bytes, so no cube holds it
	// either: the frozen view must take it.
	if p := lowerPred(v, wide); p.kind != flatBDD {
		t.Fatalf("wide-span minterm lowered to kind %d, want the view fallback", p.kind)
	}
}

// checkFlatPublished fails unless s carries a flat core compiled from its
// own tree against its own frozen view — what every publish must produce
// now that the flat core is the only stage-1 serving path.
func checkFlatPublished(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	f := s.Flat()
	if f == nil {
		t.Fatalf("%s: published snapshot has no flat core", label)
	}
	if f.src != s.tree.root || f.view != s.view {
		t.Fatalf("%s: flat core compiled for another epoch's tree or view", label)
	}
}

// TestEveryPublishCompilesFlat drives the publishers a manager has —
// construction, Update, Reconstruct (NewRestoredManager is covered where
// a restored manager exists, in TestRestoreRoundTrip) — and checks each
// snapshot they publish with checkFlatPublished.
func TestEveryPublishCompilesFlat(t *testing.T) {
	m := NewManager(32, MethodOAPT) // NewManagerWith over the one-atom tree
	checkFlatPublished(t, "NewManagerWith", m.Snapshot())
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4; i++ {
		addRandomPredicate(m, rng)
		checkFlatPublished(t, "Update", m.Snapshot())
	}
	before := m.Snapshot()
	m.Reconstruct(false)
	if m.Snapshot() == before {
		t.Fatal("Reconstruct did not publish")
	}
	checkFlatPublished(t, "Reconstruct", m.Snapshot())
	checkFlatPublished(t, "retired epoch", before)
}

// TestFlatPlannerLifecycle checks the cross-publish plan cache: plans
// accumulate over updates within one DD lineage and the planner is
// discarded at the Reconstruct swap (stale refs from the retired DD must
// never leak into the new lineage's compile).
func TestFlatPlannerLifecycle(t *testing.T) {
	m, rng := flatTestManager(t, 14)
	m.mu.RLock()
	pl, d := m.flatPlans, m.d
	m.mu.RUnlock()
	if pl == nil || pl.d != d {
		t.Fatal("planner not bound to the live DD")
	}
	_ = rng
	var ref bdd.Ref
	m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		ref = d.FromPrefix(0, 0xDEADBEEF, 31, 32)
		return ref
	})
	m.mu.RLock()
	same := m.flatPlans
	_, cached := pl.plans[ref]
	m.mu.RUnlock()
	if same != pl {
		t.Fatal("update discarded the planner despite an unchanged DD lineage")
	}
	if !cached {
		t.Fatal("publish after the update did not cache a plan for the new predicate")
	}
	m.Reconstruct(false)
	m.mu.RLock()
	fresh, newD := m.flatPlans, m.d
	m.mu.RUnlock()
	if fresh == pl {
		t.Fatal("Reconstruct kept a planner keyed to the retired DD")
	}
	if fresh == nil || fresh.d != newD {
		t.Fatal("post-swap planner not bound to the new DD")
	}
}

// sameFlat reports how a differs from b, or "" when they are the same
// compiled form: node and cube arrays, leaf and source pointers, root and
// kind counts.
func sameFlat(a, b *Flat) string {
	switch {
	case a.root != b.root:
		return fmt.Sprintf("root %d vs %d", a.root, b.root)
	case !slices.Equal(a.nodes, b.nodes):
		return fmt.Sprintf("nodes differ (%d vs %d)", len(a.nodes), len(b.nodes))
	case !slices.Equal(a.leaves, b.leaves):
		return "leaves differ"
	case !slices.Equal(a.from, b.from):
		return "source nodes differ"
	case !slices.Equal(a.cubes, b.cubes):
		return "cube arenas differ"
	case a.maskNodes != b.maskNodes || a.cubeNodes != b.cubeNodes || a.fallbackNodes != b.fallbackNodes:
		return "kind counts differ"
	}
	return ""
}

// TestIncrementalFlatMatchesFresh holds the incremental publish to a
// compile from scratch. A random program of updates — adds, removes and
// in-place replaces over all three lowering tiers, several per update,
// with a Reconstruct halfway — must leave every published flat form equal,
// field for field, to the one compileFlat builds for the same tree with no
// previous form and an empty planner; and the updates together must plan
// and emit well under the nodes they publish.
func TestIncrementalFlatMatchesFresh(t *testing.T) {
	m, rng := flatTestManager(t, 21)
	var emitted, nodes int
	for step := 0; step < 300; step++ {
		if step == 150 {
			m.Reconstruct(false)
		}
		m.Update(func(tx *Tx) {
			d := tx.DD()
			for k := 1 + rng.Intn(3); k > 0; k-- {
				live := tx.m.reg.LiveIDs()
				id := live[rng.Intn(len(live))]
				p := d.FromPrefix(0, uint64(rng.Uint32()), 2+rng.Intn(20), 32)
				switch op := rng.Intn(6); {
				case op == 0 || len(live) < 8:
					tx.Add(p)
				case op == 1:
					tx.Remove(id)
				default:
					old := tx.Ref(id)
					next := d.Or(old, p)
					if op%2 == 0 {
						next = d.Diff(old, p)
					}
					tx.Replace(id, next, p)
				}
			}
		})
		s := m.Snapshot()
		m.mu.RLock()
		fresh := compileFlat(s.tree, s.view, newFlatPlanner(m.d), nil)
		m.mu.RUnlock()
		if diff := sameFlat(s.flat, fresh); diff != "" {
			t.Fatalf("step %d: incremental flat form differs from a fresh compile: %s", step, diff)
		}
		if step != 150 {
			emitted += s.flat.emitted
			nodes += len(s.flat.nodes)
		}
	}
	t.Logf("planned and emitted %d of %d published nodes", emitted, nodes)
	if emitted*2 > nodes {
		t.Errorf("updates planned and emitted %d of %d published nodes, want under half", emitted, nodes)
	}
}

// TestCubeListPlanBudget pins the cube lowering's path budget and its
// cost past it: a union of exactly flatMaxCubes disjoint prefixes lowers
// to that many cubes, one more falls back to the view, and a predicate of
// thousands of prefixes is turned down without allocating.
func TestCubeListPlanBudget(t *testing.T) {
	d := bdd.New(32)
	// /16s whose values have even parity differ in at least two bits, so
	// no two merge into one path: n of them make exactly n paths.
	disjoint := func(n int) bdd.Ref {
		p := bdd.False
		for v := uint64(0); n > 0; v++ {
			if bits.OnesCount64(v)%2 == 0 {
				p = d.Or(p, d.FromPrefix(0, v<<16, 16, 32))
				n--
			}
		}
		return p
	}
	atCap, overCap, huge := disjoint(flatMaxCubes), disjoint(flatMaxCubes+1), disjoint(3000)
	for _, p := range []bdd.Ref{atCap, overCap, huge} {
		d.Retain(p)
	}
	v := d.Freeze()
	if p := cubeListPlan(v, atCap); p == nil || len(p.cubes) != flatMaxCubes {
		t.Fatalf("%d paths: plan %+v, want %d cubes", flatMaxCubes, p, flatMaxCubes)
	}
	if p := cubeListPlan(v, overCap); p != nil {
		t.Fatalf("%d paths lowered to %d cubes, want the view", flatMaxCubes+1, len(p.cubes))
	}
	if allocs := testing.AllocsPerRun(20, func() { cubeListPlan(v, huge) }); allocs != 0 {
		t.Fatalf("turning down a 3000-path predicate allocated %.0f times, want 0", allocs)
	}
}
