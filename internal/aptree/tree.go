// Package aptree implements the AP Tree, the core data structure of AP
// Classifier: a binary decision tree over predicates that classifies a
// packet to its atomic predicate.
//
// Internal nodes are labeled by predicates; searching evaluates the packet
// against the label's BDD and descends left (true) or right (false) until a
// leaf, which names the packet's atomic predicate and carries its
// membership vector (one bit per predicate). The paper's contribution is
// the ordering of predicates on the tree: this package implements the
// fixed/random-order construction, Quick-Ordering (§V-B), the optimized
// OAPT construction (§V-C) with its superior/inferior pairwise selection
// heuristic, and the distribution-aware weighted variant (§V-D). Pruning
// (§IV-A) is built into every construction: a predicate that does not split
// the atoms reaching a subtree is never placed there.
package aptree

import (
	"fmt"
	"math/rand"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Method selects an AP Tree construction algorithm.
type Method int

// Construction methods.
const (
	// MethodOrder places predicates in the order given (after pruning).
	MethodOrder Method = iota
	// MethodRandom shuffles the predicates with the supplied rand source.
	MethodRandom
	// MethodQuick is Quick-Ordering: descending |R(p)| (§V-B).
	MethodQuick
	// MethodOAPT is the optimized construction of §V-C, using the
	// superior/inferior relation to pick each subtree root.
	MethodOAPT
)

func (m Method) String() string {
	switch m {
	case MethodOrder:
		return "Order"
	case MethodRandom:
		return "Random"
	case MethodQuick:
		return "Quick-Ordering"
	case MethodOAPT:
		return "OAPT"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Node is an AP Tree node. Internal nodes have Pred >= 0 and two children;
// leaves have Pred == -1 and carry the atom they represent.
type Node struct {
	Pred  int32 // predicate ID evaluated at this node, -1 for leaves
	T, F  *Node // subtrees for predicate true / false
	Depth int32 // number of predicates evaluated to reach this node

	// Leaf payload.
	AtomID int32            // tree-local atom identifier
	BDD    bdd.Ref          // the atom: conjunction of decisions on the path
	Member predicate.Bitset // bit j set iff this atom implies predicate j
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Pred < 0 }

// Tree is an AP Tree over a predicate set.
type Tree struct {
	D    *bdd.DD
	root *Node
	// preds maps predicate ID -> BDD for every predicate placed in the
	// tree or added later; a removed ID's slot reads bdd.False.
	preds []bdd.Ref

	numLeaves int
	nextAtom  int32
	// visits holds the per-atom query counters, keyed by AtomID and
	// shared across the persistent versions ReplacePredicate derives from
	// this tree, so a reconstruction sees the whole lineage's history.
	visits *visitCounters
}

// Input bundles what a construction needs.
type Input struct {
	D     *bdd.DD
	Preds []bdd.Ref        // predicate BDDs indexed by global predicate ID
	Live  []int32          // IDs eligible for placement in the tree
	Atoms *predicate.Atoms // atoms of the live predicates, ID-mapped to Preds
	// Weights holds one weight per atom for the distribution-aware
	// construction (§V-D); nil means uniform.
	Weights []float64
	// Rand drives MethodRandom; ignored otherwise.
	Rand *rand.Rand
	// NoSplitFilter disables dropping non-splitting predicates from
	// subtree candidate sets. The filter is semantics-preserving (a
	// predicate that does not split an atom set cannot split any subset);
	// the switch exists only for the ablation benchmark.
	NoSplitFilter bool
}

// Build constructs an AP Tree with the chosen method.
func Build(in Input, method Method) *Tree {
	t := &Tree{D: in.D, preds: append([]bdd.Ref(nil), in.Preds...)}
	b := &builder{in: in, t: t, rsets: make([]predicate.AtomSet, len(in.Preds))}
	for _, id := range in.Live {
		if int(id) >= len(in.Preds) {
			panic(fmt.Sprintf("aptree: live id %d out of range", id))
		}
		b.rsets[id] = in.Atoms.RSet(int(id))
	}
	all := predicate.AtomRange(0, int32(in.Atoms.N()))
	switch method {
	case MethodOrder:
		t.root = b.buildFixed(in.Live, all, 0)
	case MethodRandom:
		order := append([]int32(nil), in.Live...)
		in.Rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t.root = b.buildFixed(order, all, 0)
	case MethodQuick:
		t.root = b.buildFixed(quickOrder(in), all, 0)
	case MethodOAPT:
		t.root = b.buildOAPT(append([]int32(nil), in.Live...), all, 0)
	default:
		panic(fmt.Sprintf("aptree: unknown method %v", method))
	}
	t.nextAtom = int32(in.Atoms.N())
	t.visits = newVisitCounters(int(t.nextAtom))
	t.debugCheckPartition()
	return t
}

type builder struct {
	in    Input
	t     *Tree
	rsets []predicate.AtomSet // R(p) by predicate ID, precomputed for live IDs
}

func (b *builder) weight(s predicate.AtomSet) float64 {
	if b.in.Weights == nil {
		return float64(s.Len())
	}
	w := 0.0
	s.Each(func(a int32) bool {
		w += b.in.Weights[a]
		return true
	})
	return w
}

func (b *builder) rset(p int32) predicate.AtomSet { return b.rsets[p] }

func (b *builder) leaf(atom int32, depth int32) *Node {
	ref := b.in.Atoms.List[atom]
	b.t.D.Retain(ref)
	b.t.numLeaves++
	return &Node{
		Pred:   -1,
		Depth:  depth,
		AtomID: atom,
		BDD:    ref,
		Member: b.in.Atoms.Member[atom].Clone(len(b.in.Preds)),
	}
}

// buildFixed places predicates in the given order, skipping (pruning) any
// predicate that does not split the atom set reaching the node.
func (b *builder) buildFixed(order []int32, s predicate.AtomSet, depth int32) *Node {
	if s.Len() == 1 {
		return b.leaf(s.Min(), depth)
	}
	for i, p := range order {
		st := s.Intersect(b.rset(p))
		if st.Empty() || st.Len() == s.Len() {
			continue
		}
		sf := s.Diff(b.rset(p))
		return &Node{
			Pred:  p,
			Depth: depth,
			T:     b.buildFixed(order[i+1:], st, depth+1),
			F:     b.buildFixed(order[i+1:], sf, depth+1),
		}
	}
	panic(fmt.Sprintf("aptree: %d atoms indistinguishable by remaining predicates", s.Len()))
}

// quickOrder returns live predicates in descending |R(p)| (or descending
// weight of R(p) when weights are set), the Quick-Ordering of §V-B.
func quickOrder(in Input) []int32 {
	b := builder{in: in}
	order := append([]int32(nil), in.Live...)
	w := make(map[int32]float64, len(order))
	for _, p := range order {
		w[p] = b.weight(in.Atoms.RSet(int(p)))
	}
	sortStableBy(order, func(a, c int32) bool { return w[a] > w[c] })
	return order
}

// buildOAPT is the optimized construction: at each subtree it selects a
// predicate not inferior to any other candidate (§V-C) and recurses with
// per-subtree candidate sets, so sibling subtrees may use different orders.
func (b *builder) buildOAPT(q []int32, s predicate.AtomSet, depth int32) *Node {
	if s.Len() == 1 {
		return b.leaf(s.Min(), depth)
	}
	// Restrict candidates to predicates that split s, and cache their
	// restricted atom sets.
	type cand struct {
		p  int32
		st predicate.AtomSet // s ∩ R(p)
	}
	var cands []cand
	for _, p := range q {
		st := s.Intersect(b.rset(p))
		if st.Empty() || st.Len() == s.Len() {
			continue
		}
		cands = append(cands, cand{p, st})
	}
	if len(cands) == 0 {
		panic(fmt.Sprintf("aptree: %d atoms indistinguishable by remaining predicates", s.Len()))
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if b.superior(cands[i].st, cands[best].st, s) < 0 {
			best = i
		}
	}
	ps, st := cands[best].p, cands[best].st
	sf := s.Diff(st)

	var next []int32
	if b.in.NoSplitFilter {
		// Ablation: keep every unused predicate as a candidate below.
		next = make([]int32, 0, len(q)-1)
		for _, p := range q {
			if p != ps {
				next = append(next, p)
			}
		}
	} else {
		next = make([]int32, 0, len(cands)-1)
		for _, c := range cands {
			if c.p != ps {
				next = append(next, c.p)
			}
		}
	}
	return &Node{
		Pred:  ps,
		Depth: depth,
		T:     b.buildOAPT(next, st, depth+1),
		F:     b.buildOAPT(next, sf, depth+1),
	}
}

// superior compares two candidate predicates restricted to the atom set s,
// per the four-case analysis of §V-C (Fig. 6), generalized to weighted
// atoms (§V-D replaces cardinalities by weight sums). si and sj are the
// restrictions s∩R(pi) and s∩R(pj). It returns -1 if pi is superior
// (strictly better as the subtree root), +1 if pj is, and 0 if they are in
// the same order.
func (b *builder) superior(si, sj, s predicate.AtomSet) int {
	nij := si.IntersectLen(sj)
	wS := b.weight(s)
	wi, wj := b.weight(si), b.weight(sj)
	cmp := func(x, y float64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return +1
		}
		return 0
	}
	switch {
	case nij == 0:
		// Fig 6(b): disjoint within s. Superior has smaller w(s∩R(¬p)),
		// i.e. larger w(s∩R(p)).
		return cmp(wS-wi, wS-wj)
	case nij == si.Len() && nij == sj.Len():
		// Identical restrictions: interchangeable.
		return 0
	case nij == sj.Len():
		// Fig 6(c): pj ⊂ pi within s.
		return cmp(wi, wS-wj)
	case nij == si.Len():
		// Fig 6(d): pi ⊂ pj within s.
		return cmp(wS-wi, wj)
	default:
		// Fig 6(a): genuine overlap, same order.
		return 0
	}
}

// Root returns the tree root (a single leaf for an empty predicate set).
func (t *Tree) Root() *Node { return t.root }

// NumLeaves reports the number of leaves (atoms represented by the tree).
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Pred returns the BDD of predicate id as known to this tree.
func (t *Tree) Pred(id int32) bdd.Ref { return t.preds[id] }

// NumPreds reports the size of the predicate ID space known to the tree.
func (t *Tree) NumPreds() int { return len(t.preds) }

// AtomIDBound returns an exclusive upper bound on the AtomIDs carried by
// this tree's leaves. AtomIDs are never reused within a tree lineage, so
// the bound sizes per-atom tables (the behavior cache) that index by
// AtomID.
func (t *Tree) AtomIDBound() int32 { return t.nextAtom }

// Classify walks the tree and returns the leaf whose atom contains the
// packet. It is the stage-1 hot path and does not allocate.
func (t *Tree) Classify(pkt []byte) *Node {
	n := t.root
	d := t.D
	for !n.IsLeaf() {
		if d.EvalBits(t.preds[n.Pred], pkt) {
			n = n.T
		} else {
			n = n.F
		}
	}
	t.visits.add(n.AtomID)
	return n
}

// Leaves calls fn for every leaf, in left-to-right order.
func (t *Tree) Leaves(fn func(*Node)) {
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			fn(n)
			return
		}
		walk(n.T)
		walk(n.F)
	}
	walk(t.root)
}

// SumDepth returns the total depth over all leaves (the quantity F(Q,S)
// minimized by the optimal construction).
func (t *Tree) SumDepth() int {
	sum := 0
	t.Leaves(func(n *Node) { sum += int(n.Depth) })
	return sum
}

// AverageDepth returns the mean leaf depth, the paper's primary tree
// quality metric.
func (t *Tree) AverageDepth() float64 {
	if t.numLeaves == 0 {
		return 0
	}
	return float64(t.SumDepth()) / float64(t.numLeaves)
}

// WeightedAverageDepth returns the query-weighted mean leaf depth under a
// per-atom weight lookup (atoms missing from the map weigh 1).
func (t *Tree) WeightedAverageDepth(weight func(atom int32) float64) float64 {
	var num, den float64
	t.Leaves(func(n *Node) {
		w := weight(n.AtomID)
		num += w * float64(n.Depth)
		den += w
	})
	if den == 0 {
		return 0
	}
	return num / den
}

// MaxDepth returns the deepest leaf's depth.
func (t *Tree) MaxDepth() int {
	max := 0
	t.Leaves(func(n *Node) {
		if int(n.Depth) > max {
			max = int(n.Depth)
		}
	})
	return max
}

// DepthHistogram returns counts of leaves per depth, for the CDF figure.
func (t *Tree) DepthHistogram() []int {
	h := make([]int, t.MaxDepth()+1)
	t.Leaves(func(n *Node) { h[n.Depth]++ })
	return h
}

// Drop releases the tree's BDD retentions (leaf atoms). The tree must not
// be used afterwards.
func (t *Tree) Drop() {
	t.Leaves(func(n *Node) { t.D.Release(n.BDD) })
}

// Validate checks structural invariants: leaf BDDs are non-false, pairwise
// disjoint and cover the header space; every internal node's children
// partition its reachable set; depths are consistent; and each leaf's
// membership vector matches BDD implication for every live predicate ID in
// ids. It is O(n²) in BDD operations and intended for tests.
//
//lint:ignore unreached oracle: the aptree tests and the root apdebug_test.go check trees against exact BDD implication with it
func (t *Tree) Validate(ids []int32) error {
	d := t.D
	union := bdd.False
	var leaves []*Node
	t.Leaves(func(n *Node) { leaves = append(leaves, n) })
	if len(leaves) != t.numLeaves {
		return fmt.Errorf("leaf count mismatch: walked %d, recorded %d", len(leaves), t.numLeaves)
	}
	for i, n := range leaves {
		if n.BDD == bdd.False {
			return fmt.Errorf("leaf %d has false BDD", i)
		}
		if d.And(union, n.BDD) != bdd.False {
			return fmt.Errorf("leaf %d overlaps earlier leaves", i)
		}
		union = d.Or(union, n.BDD)
		for _, id := range ids {
			want := d.Implies(n.BDD, t.preds[id])
			if n.Member.Get(int(id)) != want {
				return fmt.Errorf("leaf %d: membership bit %d = %v, implication = %v", i, id, n.Member.Get(int(id)), want)
			}
			if !want && !d.Disjoint(n.BDD, t.preds[id]) {
				return fmt.Errorf("leaf %d straddles predicate %d", i, id)
			}
		}
	}
	if union != bdd.True {
		return fmt.Errorf("leaves do not cover the header space")
	}
	var check func(n *Node, depth int32) error
	check = func(n *Node, depth int32) error {
		if n.Depth != depth {
			return fmt.Errorf("node depth %d, want %d", n.Depth, depth)
		}
		if n.IsLeaf() {
			return nil
		}
		if n.T == nil || n.F == nil {
			return fmt.Errorf("internal node with missing child")
		}
		if err := check(n.T, depth+1); err != nil {
			return err
		}
		return check(n.F, depth+1)
	}
	return check(t.root, 0)
}

// sortStableBy is insertion sort; candidate lists are short-lived and the
// stdlib sort.SliceStable would allocate a closure wrapper per call site
// anyway — but mainly this keeps tie order (insertion order) explicit.
func sortStableBy(s []int32, less func(a, b int32) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
