package network

import "apclassifier/internal/aptree"

// MBType classifies a middlebox flow-table entry by how its header change
// can be predicted (§V-E).
type MBType int

// Middlebox entry types.
const (
	// MBDeterministic (Type 1): the new header is a function of the old
	// header, so the new atomic predicate can be stored in the flow table.
	// AP Classifier fills that table lazily in the epoch's Memo, one
	// (entry, atom) pair at a time, and reads it on every later packet.
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
// entry passes through unmodified. A middlebox is part of the data plane:
// it is attached with the epoch's Wiring (SetMiddlebox) and, like the rest
// of a published wiring, never changes afterwards — a new configuration is
// a new Middlebox in a new epoch. What its Type-1 entries learn lives in
// the epoch's Memo.
type Middlebox struct {
	Name    string
	Entries []MBEntry
}

// process applies box's middlebox m to a traversal head, returning the
// resulting heads (possibly several for probabilistic entries) and whether
// the packet survived. A nil memo is the epoch's own (MemoOf).
func (m *Middlebox) process(s *aptree.Snapshot, memo *Memo, b *Behavior, w workItem) ([]workItem, bool) {
	for ei := range m.Entries {
		e := &m.Entries[ei]
		if !member(w.leaf, e.Match) {
			continue
		}
		if e.Type != MBDeterministic {
			// The entry's outcome — pass, drop, or whichever rewrite —
			// may differ between packets of the same atom, so the walk as
			// a whole stops being a function of the atom (§V-E) and the
			// behavior memo must skip it.
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
				if memo == nil {
					memo = MemoOf(s)
				}
				leaf = memo.rewritten(s, w.box, ei, w.leaf.AtomID, out)
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
