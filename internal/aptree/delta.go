package aptree

import (
	"math/bits"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// DeltaStats tallies the structural work of one delta transaction: leaves
// copied or created (the touched set), atom splits (a leaf straddling an
// added or replaced predicate) and atom merges (a removed or replaced
// predicate no longer separating two regions). They feed the apc_delta_*
// counters.
type DeltaStats struct {
	TouchedLeaves uint64
	Splits        uint64
	Merges        uint64
}

// zero reports whether the transaction did no structural delta work.
func (s DeltaStats) zero() bool { return s == DeltaStats{} }

// RemovePredicate physically removes predicate id from the tree — the dual
// of AddPredicate: every node routing on id is eliminated and the sibling
// leaves its removal leaves indistinguishable are merged back into one atom
// (disjunction of their BDDs), restoring the coarsest partition for the
// shrunken predicate set. Like AddPredicate the update is persistent: the
// receiver is untouched, unchanged subtrees are shared by pointer, and no
// BDD reference is released before the epoch boundary. Removing an ID the
// tree never placed — including one registered with the empty predicate
// bdd.False, as an all-deny ACL is — returns the receiver unchanged.
func (t *Tree) RemovePredicate(id int32) *Tree {
	var st DeltaStats
	return t.removePredicate(id, &st)
}

func (t *Tree) removePredicate(id int32, st *DeltaStats) *Tree {
	if int(id) >= len(t.preds) || t.preds[id] == bdd.False {
		// Never placed, or an empty predicate (an all-deny ACL registers
		// bdd.False): no leaf carries the bit and no node routes on the ID,
		// so removal is structurally a no-op and the version is shared.
		return t
	}
	nt := t.successor(id)
	nt.preds[id] = bdd.False
	nt.root = nt.removeRec(t.root, id, st)
	nt.visits.grow(int(nt.nextAtom))
	nt.debugCheckPartition()
	return nt
}

// removeRec returns the updated version of n with predicate id removed,
// sharing n whenever the subtree carries no trace of id.
func (t *Tree) removeRec(n *Node, id int32, st *DeltaStats) *Node {
	if n.IsLeaf() {
		if !n.Member.Get(int(id)) {
			return n
		}
		m := n.Member.Clone(len(t.preds))
		m.Set(int(id), false)
		st.TouchedLeaves++
		return &Node{Pred: -1, Depth: n.Depth, AtomID: n.AtomID, BDD: n.BDD, Member: m}
	}
	if n.Pred != id {
		nt, nf := t.removeRec(n.T, id, st), t.removeRec(n.F, id, st)
		if nt == n.T && nf == n.F {
			return n
		}
		return &Node{Pred: n.Pred, Depth: n.Depth, T: nt, F: nf}
	}
	// The router on id disappears; its two subtrees (already cleansed of
	// bit id) cover complementary halves of the region reaching n and are
	// merged into one subtree at n's depth.
	return t.merge(t.removeRec(n.T, id, st), t.removeRec(n.F, id, st), n.Depth, st)
}

// ReplacePredicate swaps predicate id's BDD for p in place, keeping the ID,
// given a region that holds every header whose membership in id changes
// (old ⊕ p ⊆ region). It is the local form of RemovePredicate followed by
// AddPredicate: the descent enters only subtrees whose header space meets
// the region, so a leaf disjoint from it keeps its bit and stays shared by
// pointer; a leaf that meets it is re-tested against p and sets its bit,
// clears it, or splits; and a router on id with a changed leaf below
// regroups its sides by p through merge, which fuses the leaves id alone
// used to separate, so the partition stays the coarsest. An old predicate of bdd.False places
// p as AddPredicate would, and p = bdd.False unplaces id as RemovePredicate
// would. The update is persistent like both.
func (t *Tree) ReplacePredicate(id int32, p, region bdd.Ref) *Tree {
	var st DeltaStats
	return t.replacePredicate(id, p, region, &st)
}

func (t *Tree) replacePredicate(id int32, p, region bdd.Ref, st *DeltaStats) *Tree {
	nt := t.successor(id)
	old := nt.preds[id]
	nt.preds[id] = p
	nt.root = nt.replaceRec(t.root, id, old, p, region, region, st)
	nt.visits.grow(int(nt.nextAtom))
	nt.debugCheckPartition()
	return nt
}

// replaceRec returns the updated version of n. r over-approximates the part
// of the region that reaches n: the region restricted by the true-side
// turns on the way down. The false side of a router gets its parent's r
// unrestricted — computing r ∧ ¬q would negate a large predicate — so a
// router's sides are pruned exactly but the leaf test decides: a leaf
// implies every true-side turn, so leaf ∧ r = leaf ∧ region.
func (t *Tree) replaceRec(n *Node, id int32, old, p, region, r bdd.Ref, st *DeltaStats) *Node {
	d := t.D
	if n.IsLeaf() {
		lr := d.And(n.BDD, r)
		if lr == bdd.False {
			return n
		}
		// Outside the region the leaf keeps its old relation to id, which
		// is its bit (leaves never straddle a placed predicate).
		in, whole := n.Member.Get(int(id)), lr == n.BDD
		lp, lq := d.And(lr, p), d.Diff(lr, p)
		switch {
		case lq == bdd.False && (in || whole):
			return t.setBit(n, id, true, st)
		case lp == bdd.False && (!in || whole):
			return t.setBit(n, id, false, st)
		}
		// Straddles p: split exactly as AddPredicate does.
		lo := d.Diff(n.BDD, region)
		tr, fr := lp, lq
		if in {
			tr = d.Or(lo, lp)
		} else {
			fr = d.Or(lo, lq)
		}
		return t.split(n, id, tr, fr, st)
	}
	q := t.preds[n.Pred]
	if n.Pred == id {
		q = old
	}
	rt := d.And(r, q)
	nT, nF := n.T, n.F
	if rt != bdd.False {
		nT = t.replaceRec(n.T, id, old, p, region, rt, st)
	}
	if rt != r {
		nF = t.replaceRec(n.F, id, old, p, region, r, st)
	}
	switch {
	case nT == n.T && nF == n.F:
		return n
	case n.Pred == id:
		// Leaves crossed the router: regroup both sides by p. Merging the
		// halves fuses the leaves that only the old predicate separated.
		tIn, tOut := restrict(nT, id)
		fIn, fOut := restrict(nF, id)
		switch {
		case tIn == nil && fIn == nil:
			return t.mergeHalf(tOut, fOut, n.Depth, st)
		case tOut == nil && fOut == nil:
			return t.mergeHalf(tIn, fIn, n.Depth, st)
		}
		return &Node{Pred: id, Depth: n.Depth,
			T: t.mergeHalf(tIn, fIn, n.Depth+1, st),
			F: t.mergeHalf(tOut, fOut, n.Depth+1, st)}
	}
	return &Node{Pred: n.Pred, Depth: n.Depth, T: nT, F: nF}
}

// setBit returns leaf n with membership bit id set to v, shared when the
// bit already reads v.
func (t *Tree) setBit(n *Node, id int32, v bool, st *DeltaStats) *Node {
	if n.Member.Get(int(id)) == v {
		return n
	}
	m := n.Member.Clone(len(t.preds))
	m.Set(int(id), v)
	st.TouchedLeaves++
	return &Node{Pred: -1, Depth: n.Depth, AtomID: n.AtomID, BDD: n.BDD, Member: m}
}

// merge combines two subtrees over disjoint header regions into one correct
// subtree rooted at the given depth. Leaves with identical membership
// vectors — which the removed predicate alone separated — fuse into one
// atom; leaves still distinguished by some predicate are re-split under a
// router on any differing bit. Every returned node is fresh (or a shared
// leaf via redepth), so Depth fields stay consistent without mutating
// shared structure.
func (t *Tree) merge(a, b *Node, depth int32, st *DeltaStats) *Node {
	if a.IsLeaf() && b.IsLeaf() {
		if j := firstDiffBit(a.Member, b.Member); j >= 0 {
			// Still distinguished: route on the differing predicate. The
			// leaf inside predicate j goes to the true side. Neither leaf
			// straddles j (leaves never straddle any present predicate), so
			// a single router restores the search invariant.
			tl, fl := a, b
			if !a.Member.Get(j) {
				tl, fl = b, a
			}
			return &Node{
				Pred:  int32(j),
				Depth: depth,
				T:     t.redepth(tl, depth+1, st),
				F:     t.redepth(fl, depth+1, st),
			}
		}
		// Indistinguishable by every remaining predicate: one atom again.
		ref := t.D.Or(a.BDD, b.BDD)
		t.D.Retain(ref)
		leaf := &Node{
			Pred:   -1,
			Depth:  depth,
			AtomID: t.nextAtom,
			BDD:    ref,
			Member: a.Member.Clone(len(t.preds)),
		}
		t.nextAtom++
		t.numLeaves--
		st.Merges++
		st.TouchedLeaves++
		return leaf
	}
	// At least one side is internal: partition both by that side's root
	// predicate and merge the halves.
	q := a.Pred
	if a.IsLeaf() {
		q = b.Pred
	}
	aT, aF := restrict(a, q)
	bT, bF := restrict(b, q)
	return &Node{
		Pred:  q,
		Depth: depth,
		T:     t.mergeHalf(aT, bT, depth+1, st),
		F:     t.mergeHalf(aF, bF, depth+1, st),
	}
}

// mergeHalf merges two possibly-absent region halves.
func (t *Tree) mergeHalf(a, b *Node, depth int32, st *DeltaStats) *Node {
	switch {
	case a == nil && b == nil:
		panic("aptree: merge produced an empty region")
	case a == nil:
		return t.redepth(b, depth, st)
	case b == nil:
		return t.redepth(a, depth, st)
	}
	return t.merge(a, b, depth, st)
}

// restrict partitions subtree n by predicate q, returning the subtrees
// covering n's region inside q and outside q (nil when empty). It relies on
// the partition invariant: every leaf either implies q or is disjoint from
// it, so a bit test routes whole leaves. Nodes already routing on q
// shortcut to their children; other routers are rebuilt only when both
// halves survive on both sides. Depths of returned nodes are not
// normalized — merge and redepth fix them.
func restrict(n *Node, q int32) (inside, outside *Node) {
	if n.IsLeaf() {
		if n.Member.Get(int(q)) {
			return n, nil
		}
		return nil, n
	}
	if n.Pred == q {
		return n.T, n.F
	}
	tIn, tOut := restrict(n.T, q)
	fIn, fOut := restrict(n.F, q)
	switch {
	case tOut == nil && fOut == nil:
		return n, nil
	case tIn == nil && fIn == nil:
		return nil, n
	}
	return joinHalves(n.Pred, tIn, fIn), joinHalves(n.Pred, tOut, fOut)
}

// joinHalves rebuilds a router over the surviving halves of its children;
// a router with one empty side is unnecessary and collapses to the other.
func joinHalves(p int32, t, f *Node) *Node {
	switch {
	case t == nil:
		return f
	case f == nil:
		return t
	}
	return &Node{Pred: p, T: t, F: f}
}

// redepth returns subtree n with every node's Depth consistent for a root
// at the given depth, sharing any node (and whole subtree) whose depths are
// already correct. Shared leaves keep their BDD reference without a new
// retain — identical to AddPredicate's copy rule, release happens at the
// epoch boundary.
func (t *Tree) redepth(n *Node, depth int32, st *DeltaStats) *Node {
	if n.IsLeaf() {
		if n.Depth == depth {
			return n
		}
		st.TouchedLeaves++
		return &Node{Pred: -1, Depth: depth, AtomID: n.AtomID, BDD: n.BDD, Member: n.Member}
	}
	nt, nf := t.redepth(n.T, depth+1, st), t.redepth(n.F, depth+1, st)
	if nt == n.T && nf == n.F && n.Depth == depth {
		return n
	}
	return &Node{Pred: n.Pred, Depth: depth, T: nt, F: nf}
}

// firstDiffBit returns the lowest bit index at which the two membership
// vectors differ, or -1 if they are equal. Vectors of different capacity
// compare with missing words read as zero.
func firstDiffBit(a, b predicate.Bitset) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for w := 0; w < n; w++ {
		var x, y uint64
		if w < len(a) {
			x = a[w]
		}
		if w < len(b) {
			y = b[w]
		}
		if d := x ^ y; d != 0 {
			return w*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}
