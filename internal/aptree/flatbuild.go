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
func cubeListPlan(v *bdd.View, f bdd.Ref) *predPlan {
	var (
		cubes []flatCube
		path  []cubeProbe
		steps int
		bad   bool
	)
	var walk func(r bdd.Ref)
	walk = func(r bdd.Ref) {
		if bad || r == bdd.False {
			return
		}
		if steps++; steps > flatMaxCubeSteps {
			bad = true
			return
		}
		if r == bdd.True {
			c, ok := cubeFromProbes(path)
			if !ok || len(cubes) >= flatMaxCubes {
				bad = true
				return
			}
			cubes = append(cubes, c)
			return
		}
		level, low, high := v.Node(r)
		path = append(path, cubeProbe{level, false})
		walk(low)
		path[len(path)-1].high = true
		walk(high)
		path = path[:len(path)-1]
	}
	walk(f)
	if bad || len(cubes) == 0 {
		return nil
	}
	return &predPlan{kind: flatCubes, nb: uint8(len(cubes)), cubes: cubes}
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
func compileFlat(t *Tree, view *bdd.View, pl *flatPlanner) *Flat {
	f := &Flat{view: view, src: t.root}
	placed := make(map[bdd.Ref]uint32) // ref -> cube-arena offset
	var emit func(n *Node) int32
	emit = func(n *Node) int32 {
		if n.IsLeaf() {
			f.leaves = append(f.leaves, n)
			return ^int32(len(f.leaves) - 1)
		}
		i := int32(len(f.nodes))
		f.nodes = append(f.nodes, flatNode{})
		ref := t.preds[n.Pred]
		p := pl.plan(view, ref)
		fn := flatNode{pred: ref, kind: p.kind}
		switch p.kind {
		case flatMask:
			f.maskNodes++
			fn.n = p.nb
			fn.off = p.base
			fn.want = binary.LittleEndian.Uint64(p.want[:])
			fn.mask = binary.LittleEndian.Uint64(p.mask[:])
		case flatCubes:
			f.cubeNodes++
			fn.n = p.nb
			aux, ok := placed[ref]
			if !ok {
				aux = uint32(len(f.cubes))
				f.cubes = append(f.cubes, p.cubes...)
				placed[ref] = aux
			}
			fn.aux = aux
		default:
			f.fallbackNodes++
		}
		kt := emit(n.T)
		kf := emit(n.F)
		fn.kids = [2]int32{kf, kt}
		f.nodes[i] = fn
		return i
	}
	f.root = emit(t.root)
	return f
}
