package aptree

import (
	"encoding/binary"

	"apclassifier/internal/bdd"
)

// Flat is the cache-packed array form of one epoch's AP Tree, compiled at
// publish time from the pointer tree (see flatbuild.go). It is the raw-speed
// stage-1 engine: the descent runs over a contiguous []flatNode laid out in
// descent order (a node's true-subtree follows it immediately), child
// selection is an index load rather than a pointer chase, and most node
// predicates are lowered out of the BDD entirely:
//
//   - minterm predicates (prefix matches: exactly one satisfying path) become
//     a masked byte-compare over a ≤8-byte window of the header;
//   - union-of-rules predicates with at most flatMaxCubes satisfying BDD
//     paths (forwarding tables, ACL permit sets) become a cube list — an OR
//     of masked byte-compares, one per path;
//   - everything wider falls back to the frozen bdd.View the snapshot
//     already carries, so the flat form is never less general than the tree.
//
// A Flat is immutable after compileFlat returns and is owned by exactly one
// Snapshot; like everything else reachable from a snapshot it may be read
// from any number of goroutines without a lock. It answers identically to
// the pointer descent by construction, and the differential fuzz/property
// suite (flat_test.go, the root FuzzFlatVsPointer harness, churn coverage)
// holds it to bit-identical answers on every dataset.
type Flat struct {
	nodes  []flatNode
	leaves []*Node    // leaf payloads; kids encode leaf L as ^L
	cubes  []flatCube // rule-cube arena (cube nodes)
	root   int32      // root node index, or ^leafIdx when the tree is one leaf
	view   *bdd.View

	// src identifies the pointer-tree root this form was compiled from; the
	// apdebug build asserts a snapshot never serves a flat form compiled for
	// another epoch's tree (see Snapshot.debugCheckFlat).
	src *Node
	// from[i] is the pointer-tree node flat node i was compiled from: the
	// next publish finds an unchanged subtree's node run through it.
	from []*Node

	maskNodes, cubeNodes, fallbackNodes int
	// emitted counts the nodes this build planned and emitted, not copied
	// from the previous epoch's flat form.
	emitted int
}

// count tallies one node of the given kind.
func (f *Flat) count(kind uint8) {
	switch kind {
	case flatMask:
		f.maskNodes++
	case flatCubes:
		f.cubeNodes++
	default:
		f.fallbackNodes++
	}
}

// flatNode is one internal tree node, 40 bytes. kids[b] is the next node
// index when the node's test evaluates to b; a negative index ^L terminates
// the descent at leaf L. A flatMask node carries its want/mask words inline
// — the payload rides the same cache line as the node, so the dominant test
// kind touches no arena at all. For flatMask, off is the first probed
// packet byte and n the probed byte count; for flatCubes, aux is the
// cube-arena offset and n the cube count.
type flatNode struct {
	kids       [2]int32
	want, mask uint64  // flatMask: little-endian match words, zero past the span
	pred       bdd.Ref // flatBDD: evaluated through the frozen view
	kind       uint8
	n          uint8 // flatMask: probed bytes (≤8); flatCubes: cube count
	off        uint32
	aux        uint32
}

// Node predicate evaluation kinds, cheapest-first.
const (
	flatBDD   uint8 = iota // frozen-view fallback for wide predicates
	flatMask               // minterm: masked byte compare
	flatCubes              // union of rule cubes: OR of masked byte compares
)

// flatCube is one masked-compare term of a flatCubes node: the cube
// matches when the little-endian word at pkt[off:] ANDed with mask equals
// want. Cubes of one node come from disjoint BDD paths, so the node's
// predicate holds exactly when some cube matches.
type flatCube struct {
	want, mask uint64
	off        uint32 // first probed packet byte
	n          uint8  // probed bytes (≤8), for the short-packet path
	_          [3]byte
}

// flatMaxCubes bounds the cube-list lowering: a predicate with more
// satisfying BDD paths than this falls back to the frozen view. Past a few
// dozen sequential compares the frozen view's single descent wins anyway.
const flatMaxCubes = 64

// test evaluates node n's predicate against pkt, returning 1 (true branch)
// or 0. Both the single-packet descent and the group-by-branch batch
// descent funnel through it. The flatMask word tiers live here so the
// whole function stays within the inliner's budget — everything with a
// loop or an out-of-line call sits behind testSlow.
//
// The mask compare exploits the node layout: want and mask are whole
// little-endian words, zero beyond the probed span, and packet bytes are
// matched positionally — so a little-endian word load of the packet window
// ANDed with the mask word equals the want word exactly when every probed
// byte matches. One unaligned load replaces a per-byte loop whenever the
// 8-byte window fits inside the packet; a ≤4-byte span falls back to a
// 4-byte load (the mask's high bytes are zero), and only packets too short
// for either walk the probed bytes one at a time (testSlow).
func (f *Flat) test(n *flatNode, pkt []byte) int32 {
	if n.kind == flatMask && int(n.off)+8 <= len(pkt) {
		if binary.LittleEndian.Uint64(pkt[n.off:])&n.mask == n.want {
			return 1
		}
		return 0
	}
	return f.testSlow(n, pkt)
}

// testSlow evaluates everything off the word fast path: cube lists,
// frozen-view descent, and mask nodes whose 8-byte window hangs
// off the packet's end (a 4-byte load when the span allows it, else the
// probed bytes one at a time).
func (f *Flat) testSlow(n *flatNode, pkt []byte) int32 {
	switch n.kind {
	case flatMask:
		o := int(n.off)
		if n.n <= 4 && o+4 <= len(pkt) {
			if uint64(binary.LittleEndian.Uint32(pkt[o:]))&n.mask == n.want {
				return 1
			}
			return 0
		}
		var acc byte
		for j := 0; j < int(n.n); j++ {
			acc |= (pkt[o+j] ^ byte(n.want>>(8*j))) & byte(n.mask>>(8*j))
		}
		if acc == 0 {
			return 1
		}
		return 0
	case flatCubes:
		for _, c := range f.cubes[n.aux : n.aux+uint32(n.n)] {
			o := int(c.off)
			if o+8 <= len(pkt) {
				if binary.LittleEndian.Uint64(pkt[o:])&c.mask == c.want {
					return 1
				}
				continue
			}
			if c.n <= 4 && o+4 <= len(pkt) {
				if uint64(binary.LittleEndian.Uint32(pkt[o:]))&c.mask == c.want {
					return 1
				}
				continue
			}
			var acc byte
			for j := 0; j < int(c.n); j++ {
				acc |= (pkt[o+j] ^ byte(c.want>>(8*j))) & byte(c.mask>>(8*j))
			}
			if acc == 0 {
				return 1
			}
		}
		return 0
	}
	if f.view.EvalBits(n.pred, pkt) {
		return 1
	}
	return 0
}

// Classify runs the flat stage-1 descent and returns the leaf whose atom
// contains the packet. It takes no lock, does not allocate, and does no
// visit accounting — Snapshot.Classify wraps it with the epoch's counters;
// calling it directly (differential tests, benchmarks) never disturbs the
// §V-D distribution statistics.
func (f *Flat) Classify(pkt []byte) *Node {
	i := f.root
	for i >= 0 {
		n := &f.nodes[i]
		i = n.kids[f.test(n, pkt)]
	}
	return f.leaves[^i]
}

// descend is the group-by-branch batch search over the flat layout,
// mirroring the pointer tree's descend: idx is partitioned in place by one
// test per packet while each flat node is touched once per group. visit is
// called once per leaf group with the group's total packet weight.
func (f *Flat) descend(i int32, pkts [][]byte, idx, tmp, weight []int32, out []*Node, visit func(atom int32, w uint64)) {
	for i >= 0 {
		n := &f.nodes[i]
		nt, nf := 0, 0
		if n.kind == flatMask { // hoisted word-compare fast path; see test
			want, msk := n.want, n.mask
			o, small := int(n.off), n.n <= 4
			for k := 0; k < len(idx); k++ {
				p := idx[k]
				pkt := pkts[p]
				var hit bool
				switch {
				case o+8 <= len(pkt):
					hit = binary.LittleEndian.Uint64(pkt[o:])&msk == want
				case small && o+4 <= len(pkt):
					hit = uint64(binary.LittleEndian.Uint32(pkt[o:]))&msk == want
				default:
					hit = f.test(n, pkt) != 0
				}
				if hit {
					idx[nt] = p // nt <= k: never overtakes the read cursor
					nt++
				} else {
					tmp[nf] = p
					nf++
				}
			}
		} else {
			for k := 0; k < len(idx); k++ {
				p := idx[k]
				if f.test(n, pkts[p]) != 0 {
					idx[nt] = p
					nt++
				} else {
					tmp[nf] = p
					nf++
				}
			}
		}
		copy(idx[nt:], tmp[:nf])
		switch {
		case nf == 0:
			i = n.kids[1]
		case nt == 0:
			i = n.kids[0]
		default:
			f.descend(n.kids[1], pkts, idx[:nt], tmp, weight, out, visit)
			f.descend(n.kids[0], pkts, idx[nt:], tmp, weight, out, visit)
			return
		}
	}
	leaf := f.leaves[^i]
	var w uint64
	for _, p := range idx {
		out[p] = leaf
		w += uint64(weight[p])
	}
	if visit != nil {
		visit(leaf.AtomID, w)
	}
}

// FlatStats describes a compiled flat form: node counts per evaluation
// kind and the total compiled footprint. The apc_flat_* gauges publish the
// latest build's values.
type FlatStats struct {
	Nodes         int // internal nodes in the flat array
	Leaves        int
	MaskNodes     int // minterm predicates lowered to masked byte compares
	CubeNodes     int // union predicates lowered to rule-cube lists
	FallbackNodes int // wide predicates still evaluated through the frozen view
	Bytes         int // nodes + arenas + leaf index, excluding the shared view
}

// Stats reports the compiled form's size and lowering mix.
func (f *Flat) Stats() FlatStats {
	const nodeBytes = 40 // flatNode: kids + want/mask words + Ref + kind/n + off/aux
	const cubeBytes = 24
	return FlatStats{
		Nodes:         len(f.nodes),
		Leaves:        len(f.leaves),
		MaskNodes:     f.maskNodes,
		CubeNodes:     f.cubeNodes,
		FallbackNodes: f.fallbackNodes,
		Bytes:         len(f.nodes)*nodeBytes + len(f.leaves)*8 + len(f.cubes)*cubeBytes,
	}
}
