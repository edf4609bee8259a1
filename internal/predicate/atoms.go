package predicate

import (
	"fmt"
	"math/rand"

	"apclassifier/internal/bdd"
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
// sized for capBits predicate IDs. The AP Classifier uses it to keep
// predicate IDs stable while dead slots (removed predicates, whose IDs
// are never reused) are excluded from a rebuild.
func ComputeMapped(d *bdd.DD, preds []bdd.Ref, ids []int, capBits int) *Atoms {
	if len(ids) != len(preds) {
		panic("predicate: ids and preds length mismatch")
	}
	a := &Atoms{D: d, NumPreds: capBits}
	a.List = []bdd.Ref{bdd.True}
	a.Member = []Bitset{NewBitset(capBits)}
	for jj, p := range preds {
		j := ids[jj]
		n := len(a.List)
		for i := 0; i < n; i++ {
			atom := a.List[i]
			t := d.And(atom, p)
			switch t {
			case bdd.False:
				// Atom entirely outside p: bit j stays clear.
			case atom:
				// Atom entirely inside p.
				a.Member[i].Set(j, true)
			default:
				// Straddles: split into atom∧p and atom∧¬p. The ¬p half is
				// inserted adjacent to its parent (not appended at the end)
				// so that every R(p) stays a short list of contiguous ID
				// runs — the property interval-coded AtomSets exploit.
				f := d.Diff(atom, p)
				a.List[i] = t
				a.Member[i].Set(j, true)
				fm := a.Member[i].Clone(capBits)
				fm.Set(j, false)
				a.List = append(a.List, bdd.False)
				copy(a.List[i+2:], a.List[i+1:])
				a.List[i+1] = f
				a.Member = append(a.Member, nil)
				copy(a.Member[i+2:], a.Member[i+1:])
				a.Member[i+1] = fm
				n++
				i++ // the ¬p half cannot straddle p again
			}
		}
	}
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
	d := a.D
	n := len(a.List)
	for i := 0; i < n; i++ {
		atom := a.List[i]
		a.Member[i] = a.Member[i].Clone(a.NumPreds)
		t := d.And(atom, p)
		switch t {
		case bdd.False:
		case atom:
			a.Member[i].Set(id, true)
		default:
			// Insert the ¬p half adjacent to its parent, matching
			// ComputeMapped's interval-local ID allocation.
			f := d.Diff(atom, p)
			a.List[i] = t
			a.Member[i].Set(id, true)
			fm := a.Member[i].Clone(a.NumPreds)
			fm.Set(id, false)
			a.List = append(a.List, bdd.False)
			copy(a.List[i+2:], a.List[i+1:])
			a.List[i+1] = f
			a.Member = append(a.Member, nil)
			copy(a.Member[i+2:], a.Member[i+1:])
			a.Member[i+1] = fm
			n++
			i++ // the ¬p half cannot straddle p again
		}
	}
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
