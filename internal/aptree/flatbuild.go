package aptree

import (
	"encoding/binary"

	"apclassifier/internal/bdd"
)

// Compiler from the pointer AP Tree to the Flat array form. compileFlat
// runs inside publishLocked on every epoch publication, so its cost is on
// the delta engine's critical path; the expensive part — deciding how each
// predicate BDD lowers (minterm walk, cube-path enumeration) — is
// therefore cached across publishes in a flatPlanner owned by
// the Manager. Refs are canonical within one DD lineage (hash-consed,
// append-only between the GC-at-swap boundaries, never collected after the
// first freeze), so a plan computed for a ref at one publish stays valid
// for that ref at every later publish of the same lineage; the planner is
// discarded wholesale when Reconstruct swaps in a fresh DD.

// predPlan is the cached lowering decision for one predicate ref: how the
// flat engine evaluates it and the data that evaluation needs. Plans hold
// their payload privately; compileFlat copies it into the per-Flat arenas
// (deduplicated per build), so a published Flat never aliases planner
// state.
type predPlan struct {
	kind uint8

	// flatMask payload: probe bytes [base, base+nb) of the packet and
	// require (pkt[base+j]^want[j])&mask[j] == 0 for all j.
	base       uint32
	nb         uint8
	want, mask [8]byte

	// flatCubes payload: the predicate holds iff any cube matches.
	cubes []flatCube
}

// flatPlanner caches predicate lowering plans for one DD lineage.
type flatPlanner struct {
	d     *bdd.DD
	plans map[bdd.Ref]*predPlan
}

// trim drops the plans of refs no live predicate holds once the cache has
// grown past twice the live count. Every Replace mints a ref and strands
// the old one, so without it the cache grows with the number of rule
// changes; with it, it stays within twice the live set at a cost
// amortized over the refs that filled it.
func (pl *flatPlanner) trim(reg *Registry) {
	if len(pl.plans) <= 2*reg.n {
		return
	}
	live := make(map[bdd.Ref]bool, reg.n)
	for _, id := range reg.LiveIDs() {
		live[reg.Ref(id)] = true
	}
	for ref := range pl.plans {
		if !live[ref] {
			delete(pl.plans, ref)
		}
	}
}

func newFlatPlanner(d *bdd.DD) *flatPlanner {
	return &flatPlanner{d: d, plans: make(map[bdd.Ref]*predPlan)}
}

// plan returns the (possibly cached) lowering for ref f, computing it
// against view on first sight.
func (pl *flatPlanner) plan(v *bdd.View, f bdd.Ref) *predPlan {
	if p, ok := pl.plans[f]; ok {
		return p
	}
	p := lowerPred(v, f)
	pl.plans[f] = p
	return p
}

// lowerPred decides how predicate f evaluates in the flat engine,
// cheapest admissible form first: masked byte compare for minterms, cube
// list for small unions of rule cubes, frozen-view descent for everything
// else.
func lowerPred(v *bdd.View, f bdd.Ref) *predPlan {
	if f <= bdd.True {
		// Terminal predicate (never placed on a tree node in practice —
		// constants split nothing): view descent is O(1) and correct.
		return &predPlan{kind: flatBDD}
	}
	if p := mintermPlan(v, f); p != nil {
		return p
	}
	if p := cubeListPlan(v, f); p != nil {
		return p
	}
	return &predPlan{kind: flatBDD}
}

// mintermPlan recognizes minterm BDDs — exactly one satisfying path, the
// shape every prefix/exact-match predicate takes — and lowers them to a
// masked byte compare when the probed levels span at most 8 bytes.
// Returns nil when f is not a minterm or spans too many bytes.
func mintermPlan(v *bdd.View, f bdd.Ref) *predPlan {
	type probe struct {
		level int32
		high  bool
	}
	var probes []probe
	for f > bdd.True {
		level, low, high := v.Node(f)
		switch {
		case low == bdd.False:
			probes = append(probes, probe{level, true})
			f = high
		case high == bdd.False:
			probes = append(probes, probe{level, false})
			f = low
		default:
			return nil // two live children: more than one satisfying path
		}
		if len(probes) > 64 { // > 8 bytes of probed bits: cannot fit anyway
			return nil
		}
	}
	if f != bdd.True || len(probes) == 0 {
		return nil
	}
	// Levels strictly ascend along any ordered-BDD path, so the first and
	// last probes bound the byte window.
	base := probes[0].level >> 3
	span := probes[len(probes)-1].level>>3 - base + 1
	if span > 8 {
		return nil
	}
	p := &predPlan{kind: flatMask, base: uint32(base), nb: uint8(span)}
	for _, pr := range probes {
		j := pr.level>>3 - base
		bit := byte(0x80) >> (uint(pr.level) & 7)
		p.mask[j] |= bit
		if pr.high {
			p.want[j] |= bit
		}
	}
	return p
}

// flatMaxCubeSteps caps the path-enumeration DFS of cubeListPlan. The walk
// is path-wise, not node-wise — paths to False count too — so a dense BDD
// can cost far more than its node count; bailing early keeps publish-time
// compile cheap.
const flatMaxCubeSteps = 4096

// cubeProbe is one probed level along a BDD path: the path takes the high
// branch at level iff high.
type cubeProbe struct {
	level int32
	high  bool
}

// cubeListPlan lowers f to a disjunction of masked byte compares — one
// cube per satisfying BDD path, the shape union-of-rules predicates take
// (forwarding tables, ACL permit sets). Paths of an ordered BDD are
// disjoint, so the disjunction is exact. Returns nil when f has more than
// flatMaxCubes satisfying paths, any cube's probed window exceeds 8 bytes,
// or the walk exceeds flatMaxCubeSteps visits.
//
// It counts the paths before it builds a cube: a forwarding predicate of
// thousands of prefixes — every one on Internet2 ×1.0 — is turned down at
// its 65th path having built and allocated nothing.
func cubeListPlan(v *bdd.View, f bdd.Ref) *predPlan {
	n := cubePaths(v, f, nil)
	if n <= 0 {
		return nil
	}
	cubes := make([]flatCube, n)
	if cubePaths(v, f, cubes) < 0 {
		return nil
	}
	return &predPlan{kind: flatCubes, nb: uint8(n), cubes: cubes}
}

// cubePaths walks the satisfying paths of f depth first, low branch
// first, and returns how many there are, or -1 past flatMaxCubes paths or
// flatMaxCubeSteps visits. The walk is path-wise, not node-wise: a
// shared node is visited once per path through it. Given out (as long as
// the count), it stores each path's cube there in walk order and also
// returns -1 when a cube's probed window exceeds 8 bytes.
func cubePaths(v *bdd.View, f bdd.Ref, out []flatCube) int {
	// branch is a high edge still to walk: the edge leaves a node at
	// level, whose probes above it are the first depth of path.
	type branch struct {
		r            bdd.Ref
		depth, level int32
	}
	var (
		n, steps int
		path     = make([]cubeProbe, 0, 128)
		todo     = append(make([]branch, 0, 128), branch{r: f, level: -1})
	)
	for len(todo) > 0 {
		b := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		path = path[:b.depth]
		if b.level >= 0 {
			path = append(path, cubeProbe{b.level, true})
		}
		for r := b.r; r != bdd.False; {
			if steps++; steps > flatMaxCubeSteps {
				return -1
			}
			if r == bdd.True {
				if n == flatMaxCubes {
					return -1
				}
				if out != nil {
					c, ok := cubeFromProbes(path)
					if !ok {
						return -1
					}
					out[n] = c
				}
				n++
				break
			}
			level, low, high := v.Node(r)
			if high != bdd.False {
				todo = append(todo, branch{high, int32(len(path)), level})
			}
			path = append(path, cubeProbe{level, false})
			r = low
		}
	}
	return n
}

// cubeFromProbes packs one path's probes into a masked-compare cube; ok is
// false when the probed window spans more than 8 bytes. Byte j of the
// window sits at word bits [8j, 8j+8) — the little-endian convention the
// word loads in Flat.test/testSlow read packets with.
func cubeFromProbes(probes []cubeProbe) (flatCube, bool) {
	// Levels strictly ascend along any ordered-BDD path, so the first and
	// last probes bound the byte window.
	base := probes[0].level >> 3
	span := probes[len(probes)-1].level>>3 - base + 1
	if span > 8 {
		return flatCube{}, false
	}
	c := flatCube{off: uint32(base), n: uint8(span)}
	for _, pr := range probes {
		j := pr.level>>3 - base
		bit := uint64(0x80>>(uint(pr.level)&7)) << (8 * uint(j))
		c.mask |= bit
		if pr.high {
			c.want |= bit
		}
	}
	return c, true
}

// compileFlat lowers the pointer tree into its Flat array form against the
// epoch's frozen view. Nodes are emitted in descent order — each internal
// node is immediately followed by its entire true-subtree, then its
// false-subtree — so every internal child index is strictly greater than
// its parent's (the acyclicity invariant the property tests check) and the
// leaves array enumerates leaves in Tree.Leaves preorder. Cube lists are
// copied into the per-Flat arena, deduplicated by ref within the build.
//
// prev, when non-nil, is the flat form of the previous publish in the
// same DD lineage. The pointer tree is persistent, so a subtree the update
// left alone is the same *Node in both trees, and in descent order it
// occupies one run of prev's nodes and one run of its leaves: it is copied
// with its child and leaf indices relocated, and only the nodes on changed
// root-to-leaf paths are planned and emitted. A copied node whose
// predicate was replaced under the same ID is lowered again from the new
// ref, and cube payloads are placed in emission order either way, so the
// result is the same Flat a compile from scratch produces.
func compileFlat(t *Tree, view *bdd.View, pl *flatPlanner, prev *Flat) *Flat {
	b := &flatBuilder{t: t, view: view, pl: pl, prev: prev,
		f: &Flat{view: view, src: t.root}, placed: make(map[bdd.Ref]uint32)}
	hint := int32(-1)
	if prev != nil {
		hint = prev.root
		// A delta changes the node count by a few at most.
		f := b.f
		f.nodes = make([]flatNode, 0, len(prev.nodes)+16)
		f.from = make([]*Node, 0, len(prev.nodes)+16)
		f.leaves = make([]*Node, 0, len(prev.leaves)+16)
		f.cubes = make([]flatCube, 0, len(prev.cubes))
	}
	b.f.root = b.emit(t.root, hint)
	return b.f
}

// flatBuilder carries one compileFlat call's state.
type flatBuilder struct {
	t      *Tree
	view   *bdd.View
	pl     *flatPlanner
	prev   *Flat
	f      *Flat
	placed map[bdd.Ref]uint32 // ref -> cube-arena offset
}

// emit appends n's subtree to the flat form and returns its index (^leaf
// for a leaf). hint is the index n's position held in prev — where an
// unchanged subtree is found without a search — or negative.
func (b *flatBuilder) emit(n *Node, hint int32) int32 {
	f := b.f
	if n.IsLeaf() {
		f.leaves = append(f.leaves, n)
		return ^int32(len(f.leaves) - 1)
	}
	if n.compiled && b.prev != nil {
		if j := b.prev.find(n, hint); j >= 0 {
			return b.copySubtree(j)
		}
	}
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, flatNode{})
	f.from = append(f.from, n)
	n.compiled = true
	ht, hf := int32(-1), int32(-1)
	if hint >= 0 {
		kids := b.prev.nodes[hint].kids
		ht, hf = kids[1], kids[0]
	}
	fn := b.lower(b.t.preds[n.Pred])
	kt := b.emit(n.T, ht)
	kf := b.emit(n.F, hf)
	fn.kids = [2]int32{kf, kt}
	f.nodes[i] = fn
	return i
}

// lower plans ref and returns its node, kids unset.
func (b *flatBuilder) lower(ref bdd.Ref) flatNode {
	p := b.pl.plan(b.view, ref)
	b.f.emitted++
	fn := flatNode{pred: ref, kind: p.kind}
	switch p.kind {
	case flatMask:
		fn.n = p.nb
		fn.off = p.base
		fn.want = binary.LittleEndian.Uint64(p.want[:])
		fn.mask = binary.LittleEndian.Uint64(p.mask[:])
	case flatCubes:
		fn.n = p.nb
		fn.aux = b.place(ref, p.cubes)
	}
	b.f.count(fn.kind)
	return fn
}

// place returns ref's offset in the cube arena, appending cubes on first
// sight.
func (b *flatBuilder) place(ref bdd.Ref, cubes []flatCube) uint32 {
	aux, ok := b.placed[ref]
	if !ok {
		aux = uint32(len(b.f.cubes))
		b.f.cubes = append(b.f.cubes, cubes...)
		b.placed[ref] = aux
	}
	return aux
}

// copySubtree appends prev's subtree at index j — its node run and its
// leaf run — relocating the child and leaf indices, and returns the
// subtree's new index.
func (b *flatBuilder) copySubtree(j int32) int32 {
	prev, f := b.prev, b.f
	end := prev.subtreeEnd(j)
	l0, l1 := prev.leafSpan(j)
	i := int32(len(f.nodes))
	dn, dl := i-j, int32(len(f.leaves))-l0
	f.nodes = append(f.nodes, prev.nodes[j:end]...)
	f.from = append(f.from, prev.from[j:end]...)
	f.leaves = append(f.leaves, prev.leaves[l0:l1]...)
	for k := i; k < int32(len(f.nodes)); k++ {
		fn := &f.nodes[k]
		for c, kid := range fn.kids {
			if kid >= 0 {
				fn.kids[c] = kid + dn
			} else {
				fn.kids[c] = ^(^kid + dl)
			}
		}
		if ref := b.t.preds[f.from[k].Pred]; ref != fn.pred {
			// Replace kept the node (no leaf below it changed) but gave
			// its ID a new ref.
			kids := fn.kids
			*fn = b.lower(ref)
			fn.kids = kids
			continue
		}
		if fn.kind == flatCubes {
			fn.aux = b.place(fn.pred, prev.cubes[fn.aux:fn.aux+uint32(fn.n)])
		}
		f.count(fn.kind)
	}
	return i
}

// find returns the index of the node compiled from n, or -1. The hint is
// checked first; a subtree an update moved (a merge regroups the sides of
// a router) is searched for.
func (f *Flat) find(n *Node, hint int32) int32 {
	if hint >= 0 && f.from[hint] == n {
		return hint
	}
	for j, m := range f.from {
		if m == n {
			return int32(j)
		}
	}
	return -1
}

// subtreeEnd returns one past the last node index of the subtree at j:
// the end of its false-subtree, or of its true-subtree when the false
// side is a leaf.
func (f *Flat) subtreeEnd(j int32) int32 {
	for {
		switch kids := f.nodes[j].kids; {
		case kids[0] >= 0:
			j = kids[0]
		case kids[1] >= 0:
			j = kids[1]
		default:
			return j + 1
		}
	}
}

// leafSpan returns the run [l0, l1) of leaf indices under node j: from
// its leftmost (all-true) leaf to its rightmost (all-false) one.
func (f *Flat) leafSpan(j int32) (l0, l1 int32) {
	k := j
	for k >= 0 {
		k = f.nodes[k].kids[1]
	}
	for j >= 0 {
		j = f.nodes[j].kids[0]
	}
	return ^k, ^j + 1
}
