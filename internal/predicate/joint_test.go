package predicate

import (
	"fmt"
	"slices"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// checkJointAtoms converts each table with PortPredicates and numbers its
// non-False port predicates, then the rest, in that order, with IDs
// 2·perm[k]+1: the even IDs are dead slots, and a perm other than the
// identity interleaves forwarding and other IDs as rule changes do. It
// holds JointAtoms to ComputeMapped over every predicate in ascending ID
// order, in one DD: the same atoms in the same order, ref for ref, and the
// same membership, bit for bit. A nil perm is the identity.
func checkJointAtoms(d *bdd.DD, layout *header.Layout, tables []*rule.FwdTable, numPorts []int, rest []bdd.Ref, perm []int) error {
	var refs []bdd.Ref
	fwd := make([][]int, len(tables))
	for b, t := range tables {
		fwd[b] = make([]int, numPorts[b])
		for p, ref := range PortPredicates(d, layout, "dstIP", t, numPorts[b]) {
			fwd[b][p] = -1
			if ref != bdd.False {
				fwd[b][p] = len(refs)
				refs = append(refs, ref)
			}
		}
	}
	nFwd := len(refs)
	refs = append(refs, rest...)
	if perm == nil {
		perm = make([]int, len(refs))
		for k := range perm {
			perm[k] = k
		}
	}
	id := func(k int) int { return 2*perm[k] + 1 }
	capBits := 2*len(refs) + 1
	for b := range fwd {
		for p, k := range fwd[b] {
			if k >= 0 {
				fwd[b][p] = id(k)
			}
		}
	}
	restIDs := make([]int, len(rest))
	for j := range rest {
		restIDs[j] = id(nFwd + j)
	}
	got := JointAtoms(d, layout, "dstIP", tables, func(b, p int) int { return fwd[b][p] }, rest, restIDs, capBits)

	byID := make([]int, len(refs))
	for k := range refs {
		byID[perm[k]] = k
	}
	sorted, ids := make([]bdd.Ref, len(refs)), make([]int, len(refs))
	for i, k := range byID {
		sorted[i], ids[i] = refs[k], id(k)
	}
	want := ComputeMapped(d, sorted, ids, capBits)
	if !slices.Equal(got.List, want.List) {
		return fmt.Errorf("atoms %v, refinement's %v", got.List, want.List)
	}
	for i := range got.Member {
		if !slices.Equal(got.Member[i], want.Member[i]) {
			return fmt.Errorf("atom %d has membership %x, refinement's %x", i, got.Member[i], want.Member[i])
		}
	}
	if got.NumPreds != capBits {
		return fmt.Errorf("NumPreds %d, want %d", got.NumPreds, capBits)
	}
	return nil
}

// TestJointAtomsEdgeCases holds JointAtoms to the refinement on the shapes
// a network's tables take at their edges, each alone and beside an
// ordinary table, with and without a predicate that is no table's.
func TestJointAtomsEdgeCases(t *testing.T) {
	table := func(rules ...rule.FwdRule) *rule.FwdTable {
		var tbl rule.FwdTable
		for _, r := range rules {
			tbl.Add(r)
		}
		return &tbl
	}
	fr := func(v uint32, length, port int) rule.FwdRule {
		return rule.FwdRule{Prefix: rule.P(v, length), Port: port}
	}
	ordinary := func() *rule.FwdTable {
		return table(fr(0x0A000000, 8, 0), fr(0x0A010000, 16, 1), fr(0x0B000000, 8, 2), fr(0x0A010100, 24, rule.Drop))
	}
	cases := map[string][]*rule.FwdTable{
		"no boxes":           nil,
		"empty table":        {table()},
		"all-drop table":     {table(fr(0, 0, rule.Drop), fr(0x0A000000, 8, rule.Drop), fr(0x0A010000, 16, rule.Drop))},
		"default route":      {table(fr(0, 0, 1), fr(0x0A000000, 8, 0), fr(0x0A000000, 9, 1))},
		"only default route": {table(fr(0, 0, 2))},
		"duplicate prefixes": {table(fr(0x0A000000, 8, 0), fr(0x0A000000, 8, 1), fr(0x0A800000, 9, 1), fr(0x0A800000, 9, 2), fr(0, 0, 0), fr(0, 0, 2))},
		"host routes":        {table(fr(0x0A000001, 32, 0), fr(0x0A000002, 32, 1), fr(0x0A000003, 32, 0))},
		"same table twice":   {ordinary(), ordinary()},
	}
	for _, layout := range []*header.Layout{header.IPv4Dst, header.FiveTuple} {
		for name, tables := range cases {
			for _, withOrdinary := range []bool{false, true} {
				tbls := slices.Clone(tables)
				if withOrdinary {
					tbls = append(tbls, ordinary())
				}
				numPorts := make([]int, len(tbls))
				for i := range numPorts {
					numPorts[i] = 3
				}
				d := bdd.New(layout.Bits())
				custom := PrefixBDD(d, layout, "dstIP", rule.P(0x0A000000, 7))
				for _, rest := range [][]bdd.Ref{nil, {custom}, {bdd.True, custom, bdd.False, custom}} {
					if err := checkJointAtoms(d, layout, tbls, numPorts, rest, nil); err != nil {
						t.Errorf("%d-bit layout, %s (ordinary table %v, %d other predicates): %v", layout.Bits(), name, withOrdinary, len(rest), err)
					}
				}
			}
		}
	}
}

// TestJointAtomsRejectsUnnumberedPort requires a winning port without a
// predicate ID to panic rather than fold its packets into another atom.
func TestJointAtomsRejectsUnnumberedPort(t *testing.T) {
	var tbl rule.FwdTable
	tbl.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("a winning port with no predicate ID did not panic")
		}
	}()
	JointAtoms(bdd.New(32), header.IPv4Dst, "dstIP", []*rule.FwdTable{&tbl}, func(int, int) int { return -1 }, nil, nil, 1)
}

// FuzzJointAtoms builds a few small random tables — duplicate prefixes,
// /0, /32 and Drop at any depth — on the 32-bit or the five-tuple layout,
// and a few ACLs over destination prefixes and, on the five-tuple layout,
// destination ports. Predicate IDs are a fuzzed permutation with dead
// slots between them. JointAtoms must give exactly ComputeMapped's atoms.
func FuzzJointAtoms(f *testing.F) {
	// layout, table count, then per table: numPorts, rule count, rules
	// (length, top byte, middle and low bits, port); then ACL count and
	// per ACL: default, rule count, rules (action, length, top byte,
	// middle and low bits, port-range byte); the rest seeds the ID
	// permutation.
	f.Add([]byte{0, 2, 3, 3, 8, 10, 0, 1, 16, 10, 0xB0, 2, 0, 0, 0, 0, 2, 2, 8, 10, 0, 1, 8, 11, 0, 0, 0})
	f.Add([]byte{1, 3, 2, 4, 0, 0, 0, 1, 8, 10, 0, 0, 32, 10, 0x03, 2, 24, 10, 0, 0, 3, 1, 8, 10, 0, 2, 0, 0, 0,
		2, 1, 2, 1, 9, 10, 0, 7, 0, 8, 0, 0, 0, 0, 1, 1, 16, 10, 0xB0, 0x33, 5, 4, 3, 2, 1})
	f.Add([]byte{0, 4, 1, 2, 8, 10, 0, 1, 8, 10, 0, 0, 4, 3, 0, 0, 0, 4, 1, 0x80, 0, 3, 12, 0x90, 0xA0, 2, 1, 1, 32, 0xFF, 0xFF, 1, 2, 0, 0, 0, 0, 9})
	f.Add([]byte{1, 0, 3, 0, 1, 1, 8, 10, 0, 0x81, 1, 0, 0, 16, 0xC0, 0xA8, 0x10, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzTable{data: data}
		layout := []*header.Layout{header.IPv4Dst, header.FiveTuple}[in.next()%2]
		tables := make([]*rule.FwdTable, in.next()%5)
		numPorts := make([]int, len(tables))
		for b := range tables {
			numPorts[b] = 1 + int(in.next()%4)
			tables[b] = &rule.FwdTable{}
			for n := int(in.next() % 12); n > 0; n-- {
				tables[b].Add(in.rule(numPorts[b]))
			}
		}
		d := bdd.New(layout.Bits())
		var rest []bdd.Ref
		for n := int(in.next() % 4); n > 0; n-- {
			acl := &rule.ACL{Default: rule.Action(in.next()%2 == 1)}
			for k := int(in.next() % 3); k > 0; k-- {
				action := rule.Action(in.next()%2 == 1)
				m := rule.MatchAll()
				m.Dst = in.rule(1).Prefix
				if b := in.next(); layout == header.FiveTuple && b&0x80 != 0 {
					m.DstPort = rule.R(uint16(b&0x0F)<<8, uint16(b&0x7F)<<8|0xFF)
				}
				acl.Rules = append(acl.Rules, rule.ACLRule{Match: m, Action: action})
			}
			rest = append(rest, ACLPredicate(d, layout, acl))
		}
		// The predicate count is known only after the conversion, so the
		// permutation is drawn over an upper bound and compacted.
		bound := len(rest)
		for _, n := range numPorts {
			bound += n
		}
		perm := make([]int, bound)
		for k := range perm {
			perm[k] = k
		}
		for k := bound - 1; k > 0 && len(in.data) > 0; k-- {
			j := int(in.next()) % (k + 1)
			perm[k], perm[j] = perm[j], perm[k]
		}
		n := len(rest)
		for b, tbl := range tables {
			for _, ref := range PortPredicates(d, layout, "dstIP", tbl, numPorts[b]) {
				if ref != bdd.False {
					n++
				}
			}
		}
		perm = compactPerm(perm, n)
		if err := checkJointAtoms(d, layout, tables, numPorts, rest, perm); err != nil {
			t.Fatal(err)
		}
	})
}

// compactPerm keeps the entries of perm below n, in order: a permutation
// of 0..n-1.
func compactPerm(perm []int, n int) []int {
	out := perm[:0]
	for _, v := range perm {
		if v < n {
			out = append(out, v)
		}
	}
	return out
}
