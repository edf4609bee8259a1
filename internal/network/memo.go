package network

import (
	"sync/atomic"

	"apclassifier/internal/aptree"
)

// Memo is one epoch's stage-2 memory, everything a query learns that
// later queries of the same epoch may reuse: network-wide behaviors per
// (ingress box, atom), and each Type-1 middlebox entry's "new atomic
// predicate" per (box, entry, incoming atom) — the flow-table column of
// §V-E. It is the paper's central invariant made operational: in one
// data-plane state every packet of an atom behaves alike from a given
// ingress (§III, §IV), so the first walk of a class answers the rest.
//
// The epoch's snapshot owns its memo (aptree.Snapshot.Memo) and every
// epoch gets its own, retired ones included, so an answer can only be
// reused inside the data plane it was computed in: a rule change, a
// middlebox swap or a reconstruction publishes a new epoch and with it an
// empty memo. There is no key to compare, no eviction and no lock: each
// slot is an atomic pointer, a lookup one load, a store one store, and
// concurrent stores of one slot race benignly (both values are correct).
//
// Only deterministic walks are stored. A walk that matched a Type-2
// (payload-dependent) or Type-3 (probabilistic) entry is not a function of
// the atom (§V-E) and is recomputed per packet; Behavior.Deterministic
// reports that. Stored behaviors are shared by all readers and must be
// treated as immutable.
type Memo struct {
	atoms     int32
	behaviors []atomic.Pointer[Behavior]      // ingress × atom
	flows     [][]atomic.Pointer[aptree.Node] // by box: entry × atom; nil without a middlebox
}

// MemoOf returns epoch s's memo, building it empty on first use.
func MemoOf(s *aptree.Snapshot) *Memo { return s.Memo(newMemo).(*Memo) }

// newMemo sizes a memo from s's tree and wiring: one behavior slot per
// (box, atom), one flow slot per (entry, atom) of each box's middlebox.
func newMemo(s *aptree.Snapshot) any {
	w := WiringOf(s)
	atoms := s.Tree().AtomIDBound()
	m := &Memo{
		atoms:     atoms,
		behaviors: make([]atomic.Pointer[Behavior], len(w.boxes)*int(atoms)),
		flows:     make([][]atomic.Pointer[aptree.Node], len(w.boxes)),
	}
	for b := range w.boxes {
		if mb := w.Middlebox(b); mb != nil {
			m.flows[b] = make([]atomic.Pointer[aptree.Node], len(mb.Entries)*int(atoms))
		}
	}
	return m
}

// slot returns the behavior slot of (ingress, atom), nil out of range.
func (m *Memo) slot(ingress int, atom int32) *atomic.Pointer[Behavior] {
	i := ingress*int(m.atoms) + int(atom)
	if atom < 0 || atom >= m.atoms || i >= len(m.behaviors) {
		return nil
	}
	return &m.behaviors[i]
}

// Lookup returns the memoized behavior for (ingress, atom), or nil on a
// miss. It also feeds the apc_behavior_cache_{hits,misses}_total
// counters.
func (m *Memo) Lookup(ingress int, atom int32) *Behavior {
	if p := m.slot(ingress, atom); p != nil {
		if b := p.Load(); b != nil {
			mCacheHits.Inc()
			return b
		}
	}
	mCacheMisses.Inc()
	return nil
}

// Store memoizes a behavior for (ingress, atom). b must have been walked
// in this memo's epoch, be deterministic (Behavior.Deterministic) and
// never be mutated afterwards. Out-of-range atoms are ignored.
func (m *Memo) Store(ingress int, atom int32, b *Behavior) {
	if p := m.slot(ingress, atom); p != nil {
		p.Store(b)
	}
}

// rewritten is the Type-1 fast path: the leaf of the header that entry
// of box's middlebox rewrites atom's packets to is classified once per
// epoch and then read from the flow table, so later packets of the atom
// skip the AP Tree search.
func (m *Memo) rewritten(s *aptree.Snapshot, box, entry int, atom int32, out []byte) *aptree.Node {
	slot := &m.flows[box][entry*int(m.atoms)+int(atom)]
	if leaf := slot.Load(); leaf != nil {
		return leaf
	}
	leaf, _ := s.Classify(out)
	slot.Store(leaf)
	return leaf
}

// Len counts the memoized behaviors; for tests and debugging.
func (m *Memo) Len() int { return filled(m.behaviors) }

// FlowLen counts the Type-1 flow-table entries box's middlebox has
// classified in this epoch.
func (m *Memo) FlowLen(box int) int { return filled(m.flows[box]) }

func filled[T any](slots []atomic.Pointer[T]) int {
	n := 0
	for i := range slots {
		if slots[i].Load() != nil {
			n++
		}
	}
	return n
}
