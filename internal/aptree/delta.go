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

// ReplacePredicate moves predicate id from its current BDD (bdd.False for
// an ID the tree has not placed) to p, keeping the ID, given a region that
// holds every header whose membership in id changes (old ⊕ p ⊆ region). It
// is the tree's one real-time update (§VI-A): Tx.Add places a fresh ID as
// False → p over p, Tx.Remove unplaces one as old → False over old, and
// Tx.Replace moves one over the caller's region, for a rule change the LPM
// cone rather than the whole header space. The descent enters only
// subtrees whose header space meets the region, so a leaf disjoint from it
// keeps its bit and stays shared by pointer; a leaf that meets it is
// re-tested against p and sets its bit, clears it, or splits into a router
// on id over two fresh leaves; and a router on id with a changed leaf below
// regroups its sides by p through merge, which fuses the leaves id alone
// used to separate, so the partition stays the coarsest one for the
// current predicate set. When the slot already holds p, the receiver is
// returned.
//
// The update is persistent: the receiver is left untouched and a new *Tree
// is returned, sharing every unchanged subtree with the old version by
// pointer. A published snapshot of the old tree therefore keeps
// classifying against the old predicate set while the manager republishes
// the new one — this is what makes the lock-free query path possible.
// Shared leaves outside a newly placed predicate keep their shorter
// membership vectors, which read bit id as clear (see predicate.Bitset.Get).
//
// No BDD reference is released: the old version may still be pinned by a
// snapshot, and all references of an epoch die together when Reconstruct
// swaps in a fresh DD. Because of this transfer of release responsibility
// to the epoch boundary, Drop must not be used on a lineage that has seen
// an update; the manager never does.
func (t *Tree) ReplacePredicate(id int32, p, region bdd.Ref) *Tree {
	var st DeltaStats
	return t.replacePredicate(id, p, region, &st)
}

func (t *Tree) replacePredicate(id int32, p, region bdd.Ref, st *DeltaStats) *Tree {
	if int(id) < len(t.preds) && t.preds[id] == p {
		return t
	}
	nt := t.successor(id)
	old := nt.preds[id]
	nt.preds[id] = p
	nt.root = nt.replaceRec(t.root, id, old, p, region, region, st)
	nt.visits.grow(int(nt.nextAtom))
	nt.debugCheckPartition()
	nt.debugCheckMember(id)
	return nt
}

// successor returns the next persistent version's shell: counters and the
// visit store carried over, its own copy of the predicate table grown to
// hold id. The caller installs the new root.
func (t *Tree) successor(id int32) *Tree {
	preds := append([]bdd.Ref(nil), t.preds...)
	for int(id) >= len(preds) {
		preds = append(preds, bdd.False)
	}
	return &Tree{
		D:           t.D,
		preds:       preds,
		numLeaves:   t.numLeaves,
		nextAtom:    t.nextAtom,
		CountVisits: t.CountVisits,
		visits:      t.visits,
	}
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
		// is its bit (leaves never straddle a placed predicate). Inside it,
		// canonical BDDs make lp == lr the exact test for lr ⊆ p.
		in, whole := n.Member.Get(int(id)), lr == n.BDD
		lp := d.And(lr, p)
		lq := lr // lr ∖ p, computed below only when lr straddles p
		switch {
		case lp == lr:
			if in || whole {
				return t.setBit(n, id, true, st)
			}
			lq = bdd.False
		case lp == bdd.False:
			if !in || whole {
				return t.setBit(n, id, false, st)
			}
		default:
			lq = d.Diff(lr, p)
		}
		// The leaf straddles p: split it, the part outside the region
		// going to the side its bit names.
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

// split replaces leaf n, which straddles predicate id, by a router on id
// over two fresh leaves: tr inside id and fr outside. The old leaf (and
// its BDD reference) lives on in any pinned older tree version; see the
// ReplacePredicate doc comment for why n.BDD is not released here.
func (t *Tree) split(n *Node, id int32, tr, fr bdd.Ref, st *DeltaStats) *Node {
	d := t.D
	mt := n.Member.Clone(len(t.preds))
	mt.Set(int(id), true)
	mf := n.Member.Clone(len(t.preds))
	mf.Set(int(id), false)
	d.Retain(tr)
	d.Retain(fr)
	tLeaf := &Node{Pred: -1, Depth: n.Depth + 1, AtomID: t.nextAtom, BDD: tr, Member: mt}
	fLeaf := &Node{Pred: -1, Depth: n.Depth + 1, AtomID: t.nextAtom + 1, BDD: fr, Member: mf}
	t.nextAtom += 2
	t.numLeaves++
	st.TouchedLeaves++
	st.Splits++
	return &Node{Pred: id, Depth: n.Depth, T: tLeaf, F: fLeaf}
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
// retain — the persistence rule of ReplacePredicate: release happens at the
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
