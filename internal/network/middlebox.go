package network

import (
	"sync"

	"apclassifier/internal/aptree"
)

// MBType classifies a middlebox flow-table entry by how its header change
// can be predicted (§V-E).
type MBType int

// Middlebox entry types.
const (
	// MBDeterministic (Type 1): the new header is a function of the old
	// header, so the new atomic predicate can be stored in the flow table.
	// AP Classifier fills that cache lazily, one (entry, atom) pair at a
	// time, and reads it on every later packet.
	MBDeterministic MBType = iota
	// MBPayload (Type 2): the new header depends on packet payload; the AP
	// Tree must be searched again for every packet.
	MBPayload
	// MBProbabilistic (Type 3): one of several rewrites happens; all
	// possibilities are explored and the behavior is marked probabilistic.
	MBProbabilistic
)

// Rewrite maps an incoming header to one or more outgoing headers. A nil
// return means the middlebox passes the packet unmodified; an empty
// non-nil return means the middlebox drops it.
type Rewrite func(pkt []byte) [][]byte

// MBEntry is one middlebox flow-table entry: match fields, a type, and the
// header-rewriting instruction.
type MBEntry struct {
	// Match is the predicate ID of the entry's match condition. The match
	// predicate participates in atomic-predicate computation exactly like
	// a forwarding predicate, so matching is a membership-bit test.
	Match int32
	Type  MBType
	// Rewrite produces the new header(s). For MBDeterministic it must be a
	// pure function of the header (that is what makes caching sound).
	Rewrite Rewrite
}

// Middlebox is an ordered flow table attached to a box; the first matching
// entry applies, like an OpenFlow table (§V-E Fig. 7). A packet matching no
// entry passes through unmodified.
type Middlebox struct {
	Name    string
	Entries []MBEntry

	// cache holds, per (entry, incoming atom), the leaf of the rewritten
	// header — the "new atomic predicate" column of the paper's flow
	// table. It is invalidated when the AP Tree is swapped (version
	// change). Only MBDeterministic entries use it.
	mu sync.Mutex
	//lint:guard mu
	cacheVersion uint64
	//lint:guard mu
	cache map[mbCacheKey]*aptree.Node
}

type mbCacheKey struct {
	entry int
	atom  int32
}

// CacheLen reports the number of cached (entry, atom) classifications; for
// tests and the Table II experiment.
func (m *Middlebox) CacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// process applies the middlebox to a traversal head, returning the
// resulting heads (possibly several for probabilistic entries) and whether
// the packet survived.
func (m *Middlebox) process(s *aptree.Snapshot, b *Behavior, w workItem) ([]workItem, bool) {
	for ei := range m.Entries {
		e := &m.Entries[ei]
		if !member(w.leaf, e.Match) {
			continue
		}
		if e.Type != MBDeterministic {
			// The entry's outcome — pass, drop, or whichever rewrite —
			// may differ between packets of the same atom, so the walk as
			// a whole stops being a function of the atom (§V-E) and the
			// behavior cache must skip it.
			b.nondet = true
		}
		outs := e.Rewrite(w.pkt)
		if outs == nil {
			return []workItem{w}, true // pass-through entry
		}
		if len(outs) == 0 {
			return nil, false // middlebox drop
		}
		if e.Type == MBProbabilistic {
			b.Probabilistic = true
		}
		heads := make([]workItem, 0, len(outs))
		for _, out := range outs {
			var leaf *aptree.Node
			if e.Type == MBDeterministic {
				leaf = m.cachedClassify(s, ei, w.leaf.AtomID, out)
			} else {
				leaf, _ = s.Classify(out)
			}
			b.Rewrites++
			heads = append(heads, workItem{box: w.box, pkt: out, leaf: leaf, hops: w.hops})
		}
		return heads, true
	}
	return []workItem{w}, true // no entry matched: default pass-through
}

// cachedClassify implements the Type-1 fast path: the new atomic predicate
// for (entry, old atom) is computed once and then served from the flow
// table, so repeated packets avoid the AP Tree search entirely. The cache
// is keyed to the classifier epoch and discarded wholesale when the AP
// Tree is swapped, because leaves of a retired tree may not reflect
// predicates added since.
func (m *Middlebox) cachedClassify(s *aptree.Snapshot, entry int, atom int32, out []byte) *aptree.Node {
	key := mbCacheKey{entry, atom}
	cur := s.Version()
	m.mu.Lock()
	if m.cache == nil || m.cacheVersion != cur {
		m.cache = make(map[mbCacheKey]*aptree.Node)
		m.cacheVersion = cur
	} else if cached, ok := m.cache[key]; ok {
		m.mu.Unlock()
		return cached
	}
	m.mu.Unlock()
	leaf, v := s.Classify(out)
	m.mu.Lock()
	if m.cacheVersion == v {
		m.cache[key] = leaf
	}
	m.mu.Unlock()
	return leaf
}

// SetFieldRewrite returns a Rewrite that overwrites one layout field with a
// constant — the typical NAT-style translation of the paper's examples.
func SetFieldRewrite(set func(pkt []byte)) Rewrite {
	return func(pkt []byte) [][]byte {
		out := make([]byte, len(pkt))
		copy(out, pkt)
		set(out)
		return [][]byte{out}
	}
}
