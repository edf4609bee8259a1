package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// AddPredicate installs a new predicate with the given global ID per
// §VI-A: every leaf whose atom straddles p is split into a node labeled
// id with two child leaves (atom∧p and atom∧¬p); leaves entirely inside
// p gain the membership bit. The result is a correct classifier for the
// enlarged predicate set immediately.
//
// The update is persistent: the receiver is left untouched and a new
// *Tree is returned, sharing every unchanged subtree with the old
// version by pointer. A published snapshot of the old tree therefore
// keeps classifying against the old predicate set while the manager
// republishes the new one — this is what makes the lock-free query path
// possible. Leaves entirely outside p are shared as-is (their shorter
// membership vectors read bit id as clear, see predicate.Bitset.Get);
// leaves inside p are replaced by a copy with the bit set; straddling
// leaves split into two fresh leaves whose atom BDDs are retained.
//
// The old leaf's BDD reference is deliberately NOT released: the old
// tree version may still be pinned by a snapshot, and all references of
// an epoch die together when Reconstruct swaps in a fresh DD. Because
// of this transfer of release responsibility to the epoch boundary,
// Drop must not be used on a lineage that has seen AddPredicate; the
// manager never does.
func (t *Tree) AddPredicate(id int32, p bdd.Ref) *Tree {
	var st DeltaStats
	return t.addPredicate(id, p, &st)
}

func (t *Tree) addPredicate(id int32, p bdd.Ref, st *DeltaStats) *Tree {
	if int(id) < len(t.preds) && t.preds[id] != bdd.False {
		panic(fmt.Sprintf("aptree: predicate ID %d already present", id))
	}
	nt := t.successor(id)
	nt.preds[id] = p
	nt.root = nt.addRec(t.root, id, p, st)
	nt.visits.grow(int(nt.nextAtom))
	nt.debugCheckPartition()
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

// addRec returns the updated version of n, sharing n itself whenever the
// subtree is unaffected by the new predicate.
func (t *Tree) addRec(n *Node, id int32, p bdd.Ref, st *DeltaStats) *Node {
	if !n.IsLeaf() {
		nt, nf := t.addRec(n.T, id, p, st), t.addRec(n.F, id, p, st)
		if nt == n.T && nf == n.F {
			return n
		}
		return &Node{Pred: n.Pred, Depth: n.Depth, T: nt, F: nf}
	}
	d := t.D
	tr := d.And(n.BDD, p)
	switch tr {
	case bdd.False:
		// Atom entirely outside p: the leaf is shared unchanged. Its
		// membership vector may be shorter than the new predicate space;
		// Bitset.Get reads the missing bit as clear, which is correct.
		return n
	case n.BDD:
		// Atom entirely inside p: copy the leaf with the bit set.
		m := n.Member.Clone(len(t.preds))
		m.Set(int(id), true)
		st.TouchedLeaves++
		return &Node{Pred: -1, Depth: n.Depth, AtomID: n.AtomID, BDD: n.BDD, Member: m}
	}
	return t.split(n, id, tr, d.Diff(n.BDD, p), st)
}

// split replaces leaf n, which straddles predicate id, by a router on id
// over two fresh leaves: tr inside id and fr outside. The old leaf (and
// its BDD reference) lives on in any pinned older tree version; see the
// AddPredicate doc comment for why n.BDD is not released here.
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

// Registry assigns stable global IDs to predicate BDDs. IDs are never
// reused: a removed predicate's slot stays dead — its ref cleared, exactly
// as the tree clears Pred(id) — so membership vectors and network
// references remain unambiguous.
type Registry struct {
	refs []bdd.Ref
	// live has bit id set iff slot id is not dead. It is copy-on-write:
	// published snapshots and Clone share it, so Add and Remove replace
	// it instead of mutating it.
	live predicate.Bitset
	n    int // live count
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a predicate BDD and returns its new global ID.
func (r *Registry) Add(ref bdd.Ref) int32 {
	id := len(r.refs)
	r.refs = append(r.refs, ref)
	r.live = r.live.Clone(len(r.refs))
	r.live.Set(id, true)
	r.n++
	return int32(id)
}

// Remove kills slot id and clears its ref.
func (r *Registry) Remove(id int32) {
	if !r.IsLive(id) {
		panic(fmt.Sprintf("aptree: double removal of predicate %d", id))
	}
	r.refs[id] = bdd.False
	r.live = r.live.Clone(len(r.refs))
	r.live.Set(int(id), false)
	r.n--
}

// Replace swaps live slot id's ref for ref; the ID stays live.
func (r *Registry) Replace(id int32, ref bdd.Ref) {
	if !r.IsLive(id) {
		panic(fmt.Sprintf("aptree: replacing dead predicate %d", id))
	}
	r.refs[id] = ref
}

// Ref returns the BDD of predicate id (bdd.False for a dead slot).
func (r *Registry) Ref(id int32) bdd.Ref { return r.refs[id] }

// IsLive reports whether id has not been removed.
func (r *Registry) IsLive(id int32) bool { return r.live.Get(int(id)) }

// NumIDs reports the size of the ID space (live + dead).
func (r *Registry) NumIDs() int { return len(r.refs) }

// LiveIDs returns the live IDs in increasing order.
func (r *Registry) LiveIDs() []int32 {
	ids := make([]int32, 0, r.n)
	for id := range r.refs {
		if r.live.Get(id) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// Refs returns the full ID-indexed BDD slice (dead slots included).
func (r *Registry) Refs() []bdd.Ref { return r.refs }

// Clone returns an independent copy (used to snapshot for reconstruction).
func (r *Registry) Clone() *Registry {
	return &Registry{
		refs: append([]bdd.Ref(nil), r.refs...),
		live: r.live,
		n:    r.n,
	}
}
