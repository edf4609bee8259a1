package predicate

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// Bitset is a fixed-capacity bit vector keyed by predicate ID. Atom
// membership vectors use it so that stage-2 behavior computation is a
// single bit test per predicate.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Get reports bit i. Indices past the vector's capacity read as clear:
// a membership vector sized for an older predicate-ID space answers
// "not a member" for predicates registered since, which is exactly the
// semantics persistent AP Tree snapshots need for shared leaves.
func (b Bitset) Get(i int) bool {
	if w := i >> 6; w < len(b) {
		return b[w]&(1<<uint(i&63)) != 0
	}
	return false
}

// Set sets bit i to v.
func (b Bitset) Set(i int, v bool) {
	if v {
		b[i>>6] |= 1 << uint(i&63)
	} else {
		b[i>>6] &^= 1 << uint(i&63)
	}
}

// Clone returns an independent copy, grown to capacity n bits if larger.
func (b Bitset) Clone(n int) Bitset {
	c := NewBitset(n)
	copy(c, b)
	return c
}

// Atoms is the set of atomic predicates of a predicate list, together with
// the membership matrix: which atoms make up each predicate.
type Atoms struct {
	D *bdd.DD
	// List holds the atomic predicate BDDs. They are pairwise disjoint and
	// their disjunction is True. Atom IDs are indices into List.
	List []bdd.Ref
	// Member[i] is atom i's membership vector: bit j is set iff atom i
	// implies predicate j (atom i ∈ R(p_j)).
	Member []Bitset
	// NumPreds is the number of predicates the membership vectors cover.
	NumPreds int
}

// Compute determines the atomic predicates of preds by iterative
// refinement: starting from the single block True, each predicate splits
// every block it straddles. Membership bits are recorded during the
// refinement so no implication checks are needed afterwards.
func Compute(d *bdd.DD, preds []bdd.Ref) *Atoms {
	ids := make([]int, len(preds))
	for i := range ids {
		ids[i] = i
	}
	return ComputeMapped(d, preds, ids, len(preds))
}

// ComputeMapped is Compute with an explicit predicate-ID mapping:
// membership bit ids[j] records implication of preds[j], and vectors are
// sized for capBits predicate IDs, so the IDs of a sparse registry (dead
// slots are never reused) keep their bits. It is the reference the
// product's atoms are tested against and the experiments' builder.
//
// Refinement in ascending ID order leaves the atoms sorted by membership
// (see sortByMembership), the order JointAtoms and a Manager rebuild
// reproduce without it.
func ComputeMapped(d *bdd.DD, preds []bdd.Ref, ids []int, capBits int) *Atoms {
	if len(ids) != len(preds) {
		panic("predicate: ids and preds length mismatch")
	}
	a := &Atoms{D: d, NumPreds: capBits}
	a.List = []bdd.Ref{bdd.True}
	a.Member = []Bitset{NewBitset(capBits)}
	for j, p := range preds {
		a.refine(ids[j], p)
	}
	return a
}

// refine splits every atom that straddles p in two, the part inside p
// first and the rest right after it, and sets bit id of every atom inside
// p. A membership vector too short for id grows to NumPreds bits first.
// Inserting the ¬p half adjacent to its parent (not at the end) keeps
// every R(p) a short list of contiguous ID runs — the property
// interval-coded AtomSets exploit.
func (a *Atoms) refine(id int, p bdd.Ref) {
	d := a.D
	for i := 0; i < len(a.List); i++ {
		if len(a.Member[i])*64 <= id {
			a.Member[i] = a.Member[i].Clone(a.NumPreds)
		}
		atom := a.List[i]
		t := d.And(atom, p)
		switch t {
		case bdd.False:
			// Atom entirely outside p: bit id stays clear.
		case atom:
			a.Member[i].Set(id, true)
		default:
			f := d.Diff(atom, p)
			a.List[i] = t
			a.Member[i].Set(id, true)
			fm := a.Member[i].Clone(a.NumPreds)
			fm.Set(id, false)
			a.List = slices.Insert(a.List, i+1, f)
			a.Member = slices.Insert(a.Member, i+1, fm)
			i++ // the ¬p half cannot straddle p again
		}
	}
}

// sortByMembership orders the atoms as refinement in ascending predicate
// ID leaves them: by membership, compared at the lowest predicate ID where
// two atoms differ, the member first. Each split puts the part inside p
// right before the rest, and atoms that agree on every predicate so far
// are one atom, so after each predicate the list is sorted by the bits
// seen so far. Atoms are distinct in membership, so the order is total.
func (a *Atoms) sortByMembership() {
	perm := make([]int, len(a.List))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(x, y int) int { return CompareMembership(a.Member[x], a.Member[y]) })
	list, member := make([]bdd.Ref, len(perm)), make([]Bitset, len(perm))
	for i, k := range perm {
		list[i], member[i] = a.List[k], a.Member[k]
	}
	a.List, a.Member = list, member
}

// CompareMembership orders two membership vectors at the lowest bit where
// they differ, the one with the bit set first. Sorting distinct atoms by
// it gives refinement's order in ascending predicate ID.
func CompareMembership(x, y Bitset) int {
	for w := range max(len(x), len(y)) {
		var u, v uint64
		if w < len(x) {
			u = x[w]
		}
		if w < len(y) {
			v = y[w]
		}
		if diff := u ^ v; diff != 0 {
			if u&diff&-diff != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// JointAtoms computes the atomic predicates of a network's predicates in
// the order and numbering ComputeMapped gives them over the same IDs in
// ascending order, without refining by the forwarding predicates.
//
// The forwarding predicates are those of the tables: port p of tables[b]
// is predicate fwdID(b, p), or has none when fwdID returns a negative ID
// (a port no packet is sent to). Packets that every table sends the same
// way form one atom, so one joint walk of all the tables' prefix indexes
// (rule.WalkTrie) finds the forwarding atoms: each trie leaf is labelled
// by its per-table winners, equal winner vectors share a label, and each
// label's atom is built bottom-up with one BDD node per trie node and
// label below it and no apply step. A label's membership is the IDs of its
// (table, winning port) predicates; a Drop winner sets no bit. Only the
// rest — ACLs and any other predicate, rest[j] with ID restIDs[j] — refine
// those atoms, and a final sort by membership puts them in ComputeMapped's
// order. Membership vectors are sized for capBits predicate IDs.
func JointAtoms(d *bdd.DD, layout *header.Layout, dstField string, tables []*rule.FwdTable, fwdID func(box, port int) int, rest []bdd.Ref, restIDs []int, capBits int) *Atoms {
	if len(restIDs) != len(rest) {
		panic("predicate: restIDs and rest length mismatch")
	}
	a := &Atoms{D: d, NumPreds: capBits}
	labels := map[string]int32{}
	var key []byte
	label := func(winners []int) int32 {
		key = key[:0]
		for _, w := range winners {
			key = binary.AppendVarint(key, int64(w))
		}
		if l, ok := labels[string(key)]; ok {
			return l
		}
		m := NewBitset(capBits)
		for b, port := range winners {
			if port == rule.Drop {
				continue
			}
			id := fwdID(b, port)
			if id < 0 {
				panic(fmt.Sprintf("predicate: table %d sends packets to port %d, which has no predicate", b, port))
			}
			m.Set(id, true)
		}
		l := int32(len(a.Member))
		labels[string(key)] = l
		a.Member = append(a.Member, m)
		return l
	}
	b := trieBuilder{d: d, offset: prefixField(layout, dstField).Offset}
	root := b.walk(tables, rule.P(0, 0), label)
	a.List = make([]bdd.Ref, len(root))
	for _, e := range root {
		a.List[e.label] = e.ref
	}
	for j, p := range rest {
		a.refine(restIDs[j], p)
	}
	a.sortByMembership()
	return a
}

// N reports the number of atomic predicates.
func (a *Atoms) N() int { return len(a.List) }

// RSet returns R(p_j) as an interval-coded AtomSet. Because refinement
// inserts split-off atoms adjacent to their parents, the result is a
// handful of contiguous runs regardless of how many atoms p_j covers.
func (a *Atoms) RSet(j int) AtomSet {
	var b AtomSetBuilder
	for i, m := range a.Member {
		if m.Get(j) {
			b.Add(int32(i))
		}
	}
	return b.Set()
}

// AddPredicate refines the atom set in place for a newly added predicate
// with global ID id (the incremental update of AP Verifier): every atom
// straddling p splits in two. Membership vectors grow to cover id.
func (a *Atoms) AddPredicate(id int, p bdd.Ref) {
	if id >= a.NumPreds {
		a.NumPreds = id + 1
	}
	a.refine(id, p)
}

// ClassifyLinear finds the atom whose BDD evaluates true on the packet by
// scanning atoms in order. This is the APLinear baseline and the ground
// truth for AP Tree classification tests. It returns -1 if no atom matches
// (impossible for a well-formed atom set).
func (a *Atoms) ClassifyLinear(pkt []byte) int {
	for i, atom := range a.List {
		if a.D.EvalBits(atom, pkt) {
			return i
		}
	}
	return -1
}

// SamplePacket draws a packet satisfying atom i uniformly over the atom's
// don't-care bits. Used by workload generators to produce query traces with
// a chosen distribution over atoms.
func (a *Atoms) SamplePacket(i int, nbytes int, rng *rand.Rand) []byte {
	assign := a.D.AnySat(a.List[i])
	if assign == nil {
		panic(fmt.Sprintf("predicate: atom %d is unsatisfiable", i))
	}
	p := make([]byte, nbytes)
	rng.Read(p)
	for v, val := range assign {
		mask := byte(0x80 >> uint(v%8))
		switch val {
		case 1:
			p[v/8] |= mask
		case 0:
			p[v/8] &^= mask
		}
	}
	return p
}
