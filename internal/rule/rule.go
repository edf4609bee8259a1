// Package rule models data-plane state: longest-prefix-match forwarding
// tables and first-match access control lists.
//
// The package also provides direct, per-packet lookup semantics
// (FwdTable.Lookup, ACL.Allows). Those lookups are the ground truth the
// predicate-based machinery is tested against: a forwarding predicate for a
// port must evaluate true on exactly the packets the table forwards there.
package rule

import (
	"fmt"
	"sort"
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

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool { return p.Contains(q) || q.Contains(p) }

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
type FwdTable struct {
	Rules []FwdRule
}

// Add appends a rule. Duplicate prefixes are allowed; the first added rule
// for a prefix wins (callers that want replace semantics Remove the prefix
// first).
func (t *FwdTable) Add(r FwdRule) { t.Rules = append(t.Rules, r) }

// Remove deletes all rules with exactly the given prefix and reports
// whether anything was removed.
func (t *FwdTable) Remove(p Prefix) bool {
	out := t.Rules[:0]
	removed := false
	for _, r := range t.Rules {
		if r.Prefix == p {
			removed = true
			continue
		}
		out = append(out, r)
	}
	t.Rules = out
	return removed
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

// coveringPorts collects the ports of rules whose prefix contains p.
func (t *FwdTable) coveringPorts(ports []int, p Prefix) []int {
	for _, r := range t.Rules {
		if r.Prefix.Contains(p) {
			ports = addConePort(ports, r.Port)
		}
	}
	return ports
}

// AddWithCone appends a rule like Add and reports the affected LPM cone:
// region = the rule's prefix; ports = the rule's own output plus every
// pre-existing rule whose prefix covers it (those are the only rules that can
// lose packets to the new one — strictly-longer rules inside the region keep
// winning, and exact-duplicate prefixes keep winning by insertion order).
func (t *FwdTable) AddWithCone(r FwdRule) Cone {
	c := Cone{Region: r.Prefix}
	c.Ports = t.coveringPorts(c.Ports, r.Prefix)
	c.Ports = addConePort(c.Ports, r.Port)
	t.Add(r)
	return c
}

// RemoveWithCone deletes all rules with exactly the given prefix, like
// Remove, and reports the affected cone: region = the prefix; ports = the
// removed rules' outputs plus every remaining rule whose prefix covers the
// region (those can regain packets the removed rule used to capture). When
// nothing was removed the cone is empty.
func (t *FwdTable) RemoveWithCone(p Prefix) (Cone, bool) {
	c := Cone{Region: p}
	out := t.Rules[:0]
	removed := false
	for _, r := range t.Rules {
		if r.Prefix == p {
			removed = true
			c.Ports = addConePort(c.Ports, r.Port)
			continue
		}
		out = append(out, r)
	}
	t.Rules = out
	if !removed {
		return Cone{Region: p}, false
	}
	c.Ports = t.coveringPorts(c.Ports, p)
	return c, true
}

// Lookup performs longest-prefix matching. The boolean result is false when
// no rule matches (the packet is dropped by the table).
func (t *FwdTable) Lookup(ip uint32) (port int, ok bool) {
	best := -1
	for _, r := range t.Rules {
		if r.Prefix.Matches(ip) && r.Prefix.Length > best {
			best = r.Prefix.Length
			port = r.Port
		}
	}
	if best < 0 {
		return 0, false
	}
	if port == Drop {
		return 0, false
	}
	return port, true
}

// ByDescendingLength returns the rule indices sorted longest prefix first,
// breaking ties by insertion order. This is the priority order used when
// converting the table to predicates.
func (t *FwdTable) ByDescendingLength() []int {
	idx := make([]int, len(t.Rules))
	for i := range idx {
		idx[i] = i
	}
	return t.sortByDescendingLength(idx)
}

// OverlappingByDescendingLength is ByDescendingLength restricted to the
// rules whose prefix overlaps one of the regions. It filters before it
// sorts, so a cone of a few prefixes costs one scan of the table plus a
// sort of the handful of rules that can win inside it; the tie order is
// the same insertion order.
func (t *FwdTable) OverlappingByDescendingLength(regions []Prefix) []int {
	var idx []int
	for i, r := range t.Rules {
		for _, g := range regions {
			if r.Prefix.Overlaps(g) {
				idx = append(idx, i)
				break
			}
		}
	}
	return t.sortByDescendingLength(idx)
}

func (t *FwdTable) sortByDescendingLength(idx []int) []int {
	sort.SliceStable(idx, func(a, b int) bool {
		return t.Rules[idx[a]].Prefix.Length > t.Rules[idx[b]].Prefix.Length
	})
	return idx
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
