package predicate

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// Test-only helpers: the shadow walk PortPredicates is held to, the exact
// atom-set check the refinement tests hold every Compute/AddPredicate
// result to, and the AtomSet conversions and set algebra the model-based
// AtomSet tests state their laws in.

// shadowPortPredicates is the AP Verifier conversion of a forwarding table
// to port predicates: the rules in decreasing prefix length, ties in
// insertion order, each contributing the packets its prefix matches minus
// the packets already shadowed by the rules before it. It is the oracle
// the trie walk of PortPredicates is held to, ref for ref in one DD.
func shadowPortPredicates(d *bdd.DD, layout *header.Layout, dstField string, t *rule.FwdTable, numPorts int) []bdd.Ref {
	preds := make([]bdd.Ref, numPorts)
	for i := range preds {
		preds[i] = bdd.False
	}
	shadow := bdd.False
	for _, ri := range t.ByDescendingLength() {
		r := t.Rules[ri]
		match := PrefixBDD(d, layout, dstField, r.Prefix)
		eff := d.Diff(match, shadow)
		if eff != bdd.False && r.Port != rule.Drop {
			if r.Port < 0 || r.Port >= numPorts {
				panic(fmt.Sprintf("predicate: rule port %d out of range [0,%d)", r.Port, numPorts))
			}
			preds[r.Port] = d.Or(preds[r.Port], eff)
		}
		shadow = d.Or(shadow, match)
		if shadow == bdd.True {
			break
		}
	}
	return preds
}

// Verify checks the defining properties of an atom set against the
// predicates it was computed from: atoms are non-false and pairwise
// disjoint, their union is True, and each predicate equals the disjunction
// of its member atoms. It is O(n²) in BDD operations.
func (a *Atoms) Verify(preds []bdd.Ref) error {
	d := a.D
	union := bdd.False
	for i, atom := range a.List {
		if atom == bdd.False {
			return fmt.Errorf("atom %d is false", i)
		}
		if d.And(union, atom) != bdd.False {
			return fmt.Errorf("atom %d overlaps earlier atoms", i)
		}
		union = d.Or(union, atom)
	}
	if union != bdd.True {
		return fmt.Errorf("atoms do not cover the header space")
	}
	for j, p := range preds {
		rebuilt := bdd.False
		for i, m := range a.Member {
			if m.Get(j) {
				rebuilt = d.Or(rebuilt, a.List[i])
			}
		}
		if rebuilt != p {
			return fmt.Errorf("predicate %d is not the disjunction of its atoms", j)
		}
	}
	return nil
}

// AtomSetFromSorted builds a set from a strictly ascending ID slice.
func AtomSetFromSorted(ids []int32) AtomSet {
	var b AtomSetBuilder
	for _, id := range ids {
		b.Add(id)
	}
	return b.Set()
}

// Slice expands the set into a sorted ID slice (nil for the empty set).
func (s AtomSet) Slice() []int32 {
	if len(s.runs) == 0 {
		return nil
	}
	out := make([]int32, 0, s.Len())
	s.Each(func(id int32) bool { out = append(out, id); return true })
	return out
}

// Intersects reports whether s ∩ t is non-empty, short-circuiting on the
// first overlapping run pair.
func (s AtomSet) Intersects(t AtomSet) bool {
	i, j := 0, 0
	for i < len(s.runs) && j < len(t.runs) {
		if s.runs[i] < t.runs[j+1] && t.runs[j] < s.runs[i+1] {
			return true
		}
		if s.runs[i+1] <= t.runs[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return false
}

// Complement returns [0, bound) ∖ s.
func (s AtomSet) Complement(bound int32) AtomSet {
	return AtomRange(0, bound).Diff(s)
}
