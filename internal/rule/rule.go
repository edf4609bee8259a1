// Package rule models data-plane state: longest-prefix-match forwarding
// tables and first-match access control lists.
//
// The package also provides direct, per-packet lookup semantics
// (FwdTable.Lookup, ACL.Allows). Those lookups are the ground truth the
// predicate-based machinery is tested against: a forwarding predicate for a
// port must evaluate true on exactly the packets the table forwards there.
package rule

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"apclassifier/internal/obs"
)

// Prefix is an IPv4-style value/length prefix over a 32-bit field.
type Prefix struct {
	Value  uint32 // bits below Length are ignored (canonicalized to zero)
	Length int    // 0..32
}

// P builds a canonical prefix, masking Value down to Length bits.
func P(value uint32, length int) Prefix {
	if length < 0 || length > 32 {
		panic(fmt.Sprintf("rule: invalid prefix length %d", length))
	}
	return Prefix{Value: value & mask32(length), Length: length}
}

func mask32(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << uint(32-length)
}

// Matches reports whether ip falls inside the prefix.
func (p Prefix) Matches(ip uint32) bool { return ip&mask32(p.Length) == p.Value }

// Contains reports whether q's address block is inside p's.
func (p Prefix) Contains(q Prefix) bool {
	return p.Length <= q.Length && q.Value&mask32(p.Length) == p.Value
}

// String renders the prefix in CIDR form.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Value>>24), byte(p.Value>>16), byte(p.Value>>8), byte(p.Value), p.Length)
}

// Drop is the pseudo-port denoting "no output" in a forwarding rule.
const Drop = -1

// FwdRule forwards packets matching Prefix to output port Port of its box.
type FwdRule struct {
	Prefix Prefix
	Port   int // output port index, or Drop
}

// FwdTable is a longest-prefix-match forwarding table.
//
// Rules is the table in insertion order, the order Dataset.Write, the
// simulators and the rule-change generators read it in. Read it freely,
// but change it only through the methods, which keep the prefix index in
// step with it.
//
// The index orders the table by prefix: positions into Rules, sorted by
// (Value, Length, position). Prefixes are laminar — two prefixes nest or
// are disjoint — so in that order the rules a prefix contains are one
// contiguous run right after it, and the rules containing it are found
// longest first by walking back from its slot (ancestors). Index builds
// it in bulk; Add and Remove keep an existing index in step; the cone
// methods and WalkTrie index the table on first use.
// A table filled with Add and Remove and only read (a generated dataset,
// a simulator oracle) never pays for it: Add appends, Remove scans, and
// Lookup is always a read-only scan.
type FwdTable struct {
	Rules []FwdRule

	// idx is the prefix-ordered index, nil until built. Positions are
	// int32: a table stays far below 2^31 rules, and half the width of
	// int keeps a 126k-rule dataset's index near half a megabyte.
	idx []int32
	// lens counts the indexed rules of each prefix length: an ancestor
	// walk stops once no rule is short enough to contain what is left.
	lens [33]int32
}

// mExamined counts the rule entries whose prefix an indexed operation
// read: every comparison a search makes, every rule a run or an ancestor
// walk visits. A whole-table scan would read every entry.
var mExamined = obs.Default.Counter("apc_rule_entries_examined_total",
	"Forwarding-rule entries read by indexed cones, trie walks and removals.")

// Index builds the prefix index if the table has none (or has one that
// no longer covers Rules), in one O(n log n) sort. A table that will be
// edited rule by rule — a classifier's — builds it up front, so the first
// rule change does not pay for it.
func (t *FwdTable) Index() {
	if t.indexed() {
		return
	}
	idx := make([]int32, len(t.Rules))
	t.lens = [33]int32{}
	for i, r := range t.Rules {
		idx[i] = int32(i)
		t.lens[r.Prefix.Length]++
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := comparePrefix(t.Rules[a].Prefix, t.Rules[b].Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	t.idx = idx
}

func (t *FwdTable) indexed() bool { return t.idx != nil && len(t.idx) == len(t.Rules) }

// CheckIndex reports whether the prefix index still describes Rules: a
// permutation of the rule positions in (Value, Length, position) order,
// with per-length counts that match a scan of the rules. A table never
// indexed passes.
//
//lint:ignore unreached apdebug: debug_on.go re-checks every table a rule-delta batch edited; the rule tests call it directly
func (t *FwdTable) CheckIndex() error {
	if t.idx == nil {
		return nil
	}
	if len(t.idx) != len(t.Rules) {
		return fmt.Errorf("rule: index holds %d entries for %d rules", len(t.idx), len(t.Rules))
	}
	var lens [33]int32
	seen := make([]bool, len(t.Rules))
	for s, pos := range t.idx {
		if pos < 0 || int(pos) >= len(t.Rules) || seen[pos] {
			return fmt.Errorf("rule: index slot %d holds position %d twice or out of range", s, pos)
		}
		seen[pos] = true
		lens[t.Rules[pos].Prefix.Length]++
		if s > 0 {
			prev := t.idx[s-1]
			c := comparePrefix(t.Rules[prev].Prefix, t.Rules[pos].Prefix)
			if c > 0 || c == 0 && prev > pos {
				return fmt.Errorf("rule: index slots %d and %d out of order", s-1, s)
			}
		}
	}
	if lens != t.lens {
		return fmt.Errorf("rule: per-length counts %v, rules have %v", t.lens, lens)
	}
	return nil
}

// Clone returns a copy of the table that shares nothing mutable with it:
// its own rule slice and its own index.
func (t *FwdTable) Clone() FwdTable {
	c := *t
	c.Rules, c.idx = slices.Clone(t.Rules), slices.Clone(t.idx)
	return c
}

// comparePrefix orders prefixes by value, then by length: a prefix sorts
// before every prefix it contains.
func comparePrefix(a, b Prefix) int {
	if c := cmp.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	return cmp.Compare(a.Length, b.Length)
}

// at returns the prefix in index slot s, counting the read.
func (t *FwdTable) at(s int, n *uint64) Prefix {
	*n++
	return t.Rules[t.idx[s]].Prefix
}

// upperBound returns the first slot in [lo, hi) whose prefix sorts after
// p: the slot a rule with prefix p is inserted at.
func (t *FwdTable) upperBound(p Prefix, lo, hi int, n *uint64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if comparePrefix(t.at(m, n), p) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search is upperBound over the whole index.
func (t *FwdTable) search(p Prefix, n *uint64) int {
	return t.upperBound(p, 0, len(t.idx), n)
}

// ancestors walks the slots at or below s whose prefix contains q,
// longest first (equal prefixes in descending position), until fn
// returns false. s is the last slot that sorts at or before q. A slot
// that sorts before q without containing it is disjoint from q; every
// containing prefix that sorts before it also contains the prefix the two
// share, so the walk goes on from that shorter prefix, galloping back from
// where it is, and stops once no rule is that short.
func (t *FwdTable) ancestors(q Prefix, s int, n *uint64, fn func(s int, p Prefix) bool) {
	shortest := 0
	for shortest < len(t.lens) && t.lens[shortest] == 0 {
		shortest++
	}
	for s >= 0 && q.Length >= shortest {
		e := t.at(s, n)
		if !e.Contains(q) {
			q = P(q.Value, bits.LeadingZeros32(e.Value^q.Value))
		} else if !fn(s, e) {
			return
		} else {
			q = e
		}
		// Gallop back from s for the last slot at or before q.
		hi, lo := s, 0
		for step := 1; hi > 0; step *= 2 {
			j := max(hi-step, 0)
			if comparePrefix(t.at(j, n), q) <= 0 {
				lo = j + 1
				break
			}
			hi = j
		}
		s = t.upperBound(q, lo, hi, n) - 1
	}
}

// Add appends a rule. Duplicate prefixes are allowed; the first added rule
// for a prefix wins (callers that want replace semantics Remove the prefix
// first). An indexed table inserts the rule's position into the index.
func (t *FwdTable) Add(r FwdRule) {
	if !t.indexed() {
		t.idx = nil
		t.Rules = append(t.Rules, r)
		return
	}
	var n uint64
	t.insert(r, t.search(r.Prefix, &n))
	mExamined.Add(n)
}

// insert appends r to Rules and its position to the index at slot s.
func (t *FwdTable) insert(r FwdRule, s int) {
	t.idx = slices.Insert(t.idx, s, int32(len(t.Rules)))
	t.lens[r.Prefix.Length]++
	t.Rules = append(t.Rules, r)
}

// Remove deletes all rules with exactly the given prefix and reports
// whether anything was removed. An indexed table finds them by a search;
// a table never indexed is scanned, as Add appends to it, and stays
// unindexed.
func (t *FwdTable) Remove(p Prefix) bool {
	if !t.indexed() {
		t.idx = nil
		out := t.Rules[:0]
		for _, r := range t.Rules {
			if r.Prefix != p {
				out = append(out, r)
			}
		}
		removed := len(out) < len(t.Rules)
		t.Rules = out
		return removed
	}
	var n uint64
	_, removed := t.remove(p, nil, &n)
	mExamined.Add(n)
	return removed
}

// remove deletes the rules with prefix p from an indexed table, passing
// each one's port to port, and reports whether there were any and the
// slot they were cut from. Rules keeps the survivors in insertion order,
// so every position past the first removed one moves down: one pass over
// the int32 index renumbers them, linear like the compaction of Rules
// but over 4-byte entries and reading no prefix.
func (t *FwdTable) remove(p Prefix, port func(int), n *uint64) (int, bool) {
	hi := t.search(p, n)
	lo := hi
	for lo > 0 && t.at(lo-1, n) == p {
		lo--
	}
	if hi == lo {
		return lo, false
	}
	gone := slices.Clone(t.idx[lo:hi]) // ascending: ties sort by position
	if port != nil {
		for _, pos := range gone {
			port(t.Rules[pos].Port)
		}
	}
	first := gone[0]
	for s, pos := range t.idx {
		if pos > first {
			k, _ := slices.BinarySearch(gone, pos) // removed positions before pos
			t.idx[s] = pos - int32(k)
		}
	}
	t.idx = slices.Delete(t.idx, lo, hi)
	t.lens[p.Length] -= int32(len(gone))
	out := t.Rules[:first]
	for _, r := range t.Rules[first+1:] {
		if r.Prefix != p {
			out = append(out, r)
		}
	}
	t.Rules = out
	return lo, true
}

// Cone is the LPM cone of a table mutation: the header region inside which
// longest-prefix winners can change, and the output ports whose covering
// sets may have changed. Prefix laminarity makes the cone exact: a rule
// matching a packet inside Region either has its prefix contained in Region
// (strictly longer, so it keeps winning regardless of the mutation) or has a
// prefix containing Region (it can lose packets to an added rule, or regain
// packets from a removed one). Ports never lists Drop — drops have no port
// predicate; they reshape other ports' predicates, which the listed covering
// ports capture.
type Cone struct {
	Region Prefix
	Ports  []int
}

// addConePort appends p to the sorted, deduplicated port list.
func addConePort(ports []int, p int) []int {
	if p == Drop {
		return ports
	}
	i := sort.SearchInts(ports, p)
	if i < len(ports) && ports[i] == p {
		return ports
	}
	ports = append(ports, 0)
	copy(ports[i+1:], ports[i:])
	ports[i] = p
	return ports
}

// coveringPorts adds to the cone the ports of the rules whose prefix
// contains its region; s is the last slot that sorts at or before it.
func (t *FwdTable) coveringPorts(c *Cone, s int, n *uint64) {
	t.ancestors(c.Region, s, n, func(s int, _ Prefix) bool {
		c.Ports = addConePort(c.Ports, t.Rules[t.idx[s]].Port)
		return true
	})
}

// AddWithCone appends a rule like Add and reports the affected LPM cone:
// region = the rule's prefix; ports = the rule's own output plus every
// pre-existing rule whose prefix covers it (those are the only rules that can
// lose packets to the new one — strictly-longer rules inside the region keep
// winning, and exact-duplicate prefixes keep winning by insertion order).
func (t *FwdTable) AddWithCone(r FwdRule) Cone {
	t.Index()
	var n uint64
	c := Cone{Region: r.Prefix}
	at := t.search(r.Prefix, &n)
	t.coveringPorts(&c, at-1, &n)
	c.Ports = addConePort(c.Ports, r.Port)
	t.insert(r, at)
	mExamined.Add(n)
	return c
}

// RemoveWithCone deletes all rules with exactly the given prefix, like
// Remove, and reports the affected cone: region = the prefix; ports = the
// removed rules' outputs plus every remaining rule whose prefix covers the
// region (those can regain packets the removed rule used to capture). When
// nothing was removed the cone is empty.
func (t *FwdTable) RemoveWithCone(p Prefix) (Cone, bool) {
	t.Index()
	var n uint64
	defer func() { mExamined.Add(n) }()
	c := Cone{Region: p}
	at, removed := t.remove(p, func(port int) { c.Ports = addConePort(c.Ports, port) }, &n)
	if !removed {
		return Cone{Region: p}, false
	}
	t.coveringPorts(&c, at-1, &n)
	return c, true
}

// Lookup performs longest-prefix matching. The boolean result is false when
// no rule matches (the packet is dropped by the table). It scans the rules
// and never reads the index: Lookup is the per-packet ground truth the
// indexed machinery is tested against, and it never writes to the table,
// so concurrent readers need no lock.
func (t *FwdTable) Lookup(ip uint32) (port int, ok bool) {
	best := -1
	for _, r := range t.Rules {
		if r.Prefix.Matches(ip) && r.Prefix.Length > best {
			best = r.Prefix.Length
			port = r.Port
		}
	}
	if best < 0 || port == Drop {
		return 0, false
	}
	return port, true
}

// ByDescendingLength returns the rule indices sorted longest prefix first,
// breaking ties by insertion order: the priority order of a shadow walk
// over the table, which the HSA transfer functions are built in. A
// counting pass over the 33 lengths builds it in linear time.
func (t *FwdTable) ByDescendingLength() []int {
	var start [34]int // start[32-l]: first output slot of length l
	for _, r := range t.Rules {
		start[32-r.Prefix.Length+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx := make([]int, len(t.Rules))
	for i, r := range t.Rules {
		k := 32 - r.Prefix.Length
		idx[start[k]] = i
		start[k]++
	}
	return idx
}

// WalkTrie walks the joint longest-prefix-match decision of the tables
// inside the region g as a binary trie over the address bits, in
// post-order. A trie node is a prefix at or inside g; it is a leaf once no
// table has a rule strictly inside it, and leaf reports the rule that wins
// its whole block in each table: winners[i] is the output of the first
// added of tables[i]'s longest rules containing the block, or Drop when
// that rule drops or no rule contains it. The slice is the walk's own,
// valid until leaf returns. Any other node splits on its next address
// bit: the walk visits the 0-child's subtrie, then the 1-child's, then
// calls split with the node's prefix length.
//
// Prefixes are laminar, so no node looks up a winner: the walk carries
// each table's winner down, cuts the index run of the table's rules inside
// a node at the child boundary with a binary search of the run, and a
// rule equal to a child becomes that child's winner in its table. A node
// carries only the tables with a rule strictly inside it, so a table costs
// the nodes of its own trie and nothing where it has no rules. Each run
// inside g is contiguous in its table's index, and g's own winners come
// from the ancestor walks, so nothing outside g and the rules containing
// it is read. A table with no index is indexed first.
func WalkTrie(tables []*FwdTable, g Prefix, leaf func(winners []int), split func(length int)) {
	w := trieWalk{tables: tables, winners: make([]int, len(tables)), leaf: leaf, split: split}
	for i, t := range tables {
		t.Index()
		at := t.search(g, &w.n)
		winner, longest := Drop, Prefix{Length: -1}
		// Equal prefixes come in descending position: the last one the
		// walk meets at the longest length is the first added.
		t.ancestors(g, at-1, &w.n, func(s int, p Prefix) bool {
			if longest.Length >= 0 && p != longest {
				return false
			}
			winner, longest = t.Rules[t.idx[s]].Port, p
			return true
		})
		w.winners[i] = winner
		if end := t.upperBound(P(g.Value|^mask32(g.Length), 32), at, len(t.idx), &w.n); at < end {
			w.runs = append(w.runs, trieRun{table: int32(i), lo: int32(at), hi: int32(end)})
		}
	}
	w.walk(g, 0)
	mExamined.Add(w.n)
}

// trieRun is one table's index run at a trie node: slots [lo, hi) hold
// the table's rules strictly inside the node, and mid is where its
// 1-child's rules begin.
type trieRun struct {
	table, lo, mid, hi int32
}

// trieUndo records the winner a table had before a child took over.
type trieUndo struct {
	table  int32
	winner int
}

// trieWalk is the state of one WalkTrie. runs is a stack: a node's runs
// are runs[from:] when it is visited, and its children's are pushed above
// them. undo holds the winners a child took over, to restore on the way
// back up.
type trieWalk struct {
	tables  []*FwdTable
	winners []int
	runs    []trieRun
	undo    []trieUndo
	leaf    func(winners []int)
	split   func(length int)
	n       uint64
}

// walk visits the trie node g, whose runs are runs[from:].
func (w *trieWalk) walk(g Prefix, from int) {
	to := len(w.runs)
	if from == to {
		w.leaf(w.winners)
		return
	}
	// Every prefix in a run has g's bits and is longer than g, so its bit
	// g.Length splits the run: zeros first.
	bit := uint32(1) << (31 - g.Length)
	for i := from; i < to; i++ {
		r := &w.runs[i]
		t := w.tables[r.table]
		lo, hi := int(r.lo), int(r.hi)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if t.at(m, &w.n).Value&bit == 0 {
				lo = m + 1
			} else {
				hi = m
			}
		}
		r.mid = int32(lo)
	}
	w.child(P(g.Value, g.Length+1), from, to, false)
	w.child(P(g.Value|bit, g.Length+1), from, to, true)
	w.split(g.Length)
}

// child visits the child c of the node whose runs are runs[from:to]: the
// 1-child when one is set. In each table the rules equal to c lead its
// part of the run, and the first of them, the first added, takes over
// from the parent's winner.
func (w *trieWalk) child(c Prefix, from, to int, one bool) {
	undo := len(w.undo)
	for i := from; i < to; i++ {
		r := w.runs[i]
		lo, hi := r.lo, r.mid
		if one {
			lo, hi = r.mid, r.hi
		}
		t := w.tables[r.table]
		if lo < hi && t.at(int(lo), &w.n) == c {
			w.undo = append(w.undo, trieUndo{r.table, w.winners[r.table]})
			w.winners[r.table] = t.Rules[t.idx[lo]].Port
			for lo++; lo < hi && t.at(int(lo), &w.n) == c; lo++ {
			}
		}
		if lo < hi {
			w.runs = append(w.runs, trieRun{table: r.table, lo: lo, hi: hi})
		}
	}
	w.walk(c, to)
	w.runs = w.runs[:to]
	for len(w.undo) > undo {
		u := w.undo[len(w.undo)-1]
		w.winners[u.table] = u.winner
		w.undo = w.undo[:len(w.undo)-1]
	}
}

// Action is an ACL rule decision.
type Action bool

// ACL actions.
const (
	Deny   Action = false
	Permit Action = true
)

// PortRange is an inclusive 16-bit range; the zero value must not be used
// directly — use AnyPort or R.
type PortRange struct {
	Lo, Hi uint16
}

// AnyPort matches every transport port.
var AnyPort = PortRange{0, 0xFFFF}

// R builds an inclusive port range.
func R(lo, hi uint16) PortRange {
	if lo > hi {
		panic(fmt.Sprintf("rule: invalid port range [%d,%d]", lo, hi))
	}
	return PortRange{lo, hi}
}

// Contains reports whether p falls inside the range.
func (r PortRange) Contains(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// AnyProto matches every protocol number in a Match5.
const AnyProto = -1

// Match5 is a classic 5-tuple match condition.
type Match5 struct {
	Src, Dst         Prefix
	SrcPort, DstPort PortRange
	Proto            int // 0..255, or AnyProto
}

// MatchAll matches every packet.
func MatchAll() Match5 {
	return Match5{SrcPort: AnyPort, DstPort: AnyPort, Proto: AnyProto}
}

// Fields is a decoded 5-tuple used for ground-truth matching.
type Fields struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Matches reports whether the 5-tuple satisfies the condition.
func (m Match5) Matches(f Fields) bool {
	return m.Src.Matches(f.Src) && m.Dst.Matches(f.Dst) &&
		m.SrcPort.Contains(f.SrcPort) && m.DstPort.Contains(f.DstPort) &&
		(m.Proto == AnyProto || m.Proto == int(f.Proto))
}

// ACLRule pairs a match condition with an action.
type ACLRule struct {
	Match  Match5
	Action Action
}

// ACL is a first-match access control list. A packet matching no rule gets
// the Default action (real-world ACLs default to deny).
type ACL struct {
	Rules   []ACLRule
	Default Action
}

// Allows reports whether the ACL permits the 5-tuple.
func (a *ACL) Allows(f Fields) bool {
	for _, r := range a.Rules {
		if r.Match.Matches(f) {
			return bool(r.Action)
		}
	}
	return bool(a.Default)
}
