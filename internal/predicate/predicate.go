// Package predicate converts data-plane rule tables into BDD predicates and
// computes atomic predicates, following the algorithms of AP Verifier
// (Yang & Lam) that the AP Classifier paper builds on.
//
// A forwarding table with m output ports becomes m forwarding predicates
// (one per port: the set of packets the table sends to that port). An ACL
// becomes one permit predicate. The atomic predicates of the resulting
// predicate set are the coarsest partition of the header space such that
// every predicate is a union of partition blocks; packets in the same block
// have identical behavior at every box in the network.
package predicate

import (
	"cmp"
	"fmt"
	"slices"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// PrefixBDD returns the BDD for an IPv4 prefix constraint over the named
// 32-bit field of the layout.
func PrefixBDD(d *bdd.DD, layout *header.Layout, field string, p rule.Prefix) bdd.Ref {
	return d.FromPrefix(prefixField(layout, field).Offset, uint64(p.Value), p.Length, 32)
}

// PortPredicates converts a longest-prefix-match forwarding table into one
// predicate per output port: preds[i] is true exactly for the packets the
// table forwards to port i. Packets matched by a Drop rule, or matched by
// no rule, belong to no port predicate.
//
// A forwarding table is a laminar prefix tree, so the conversion is one
// walk of the table's prefix index (rule.WalkTrie) that emits every
// predicate bottom-up, one BDD node per port per trie node and no apply
// step: every node it makes belongs to a result. The table is indexed
// first if it has no index.
func PortPredicates(d *bdd.DD, layout *header.Layout, dstField string, t *rule.FwdTable, numPorts int) []bdd.Ref {
	preds := make([]bdd.Ref, numPorts)
	for i := range preds {
		preds[i] = bdd.False
	}
	b := trieBuilder{d: d, offset: prefixField(layout, dstField).Offset}
	for _, e := range b.walk([]*rule.FwdTable{t}, rule.P(0, 0), portLabel(numPorts)) {
		preds[e.label] = e.ref
	}
	return preds
}

// portLabel labels a one-table trie leaf with its winning port, and a
// dropped block with no label.
func portLabel(numPorts int) func(winners []int) int32 {
	return func(winners []int) int32 {
		port := winners[0]
		if port == rule.Drop {
			return -1
		}
		if port < 0 || port >= numPorts {
			panic(fmt.Sprintf("predicate: rule port %d out of range [0,%d)", port, numPorts))
		}
		return int32(port)
	}
}

// prefixField returns the named field of the layout, which must be a
// 32-bit prefix field.
func prefixField(layout *header.Layout, field string) header.Field {
	f := layout.MustField(field)
	if f.Width != 32 {
		panic(fmt.Sprintf("predicate: field %q is %d bits, prefixes need 32", field, f.Width))
	}
	return f
}

// labelRef is one entry of a sparse label list.
type labelRef struct {
	label int32
	ref   bdd.Ref
}

// trieBuilder turns a post-order trie walk whose leaves carry labels into
// one predicate per label: the union of the blocks of the leaves with
// that label. Each trie node's result is the list of the labels of the
// leaves below it, ascending, each with its predicate over the address
// bits below the node. The results of the nodes whose parent has not been
// reached yet sit concatenated on out, the i-th from starts[i].
type trieBuilder struct {
	d      *bdd.DD
	offset int
	out    []labelRef
	starts []int
}

// walk runs WalkTrie of the tables over the region g, labelling each leaf
// by its winners (a negative label puts the leaf's block in no result),
// and returns g's result, whose predicates test only the address bits
// below g's length.
func (b *trieBuilder) walk(tables []*rule.FwdTable, g rule.Prefix, label func(winners []int) int32) []labelRef {
	b.out, b.starts = b.out[:0], b.starts[:0]
	rule.WalkTrie(tables, g, func(winners []int) { b.leaf(label(winners)) }, b.split)
	return b.out
}

// leaf pushes a block one label covers whole: the label is the block's
// only entry, true everywhere.
func (b *trieBuilder) leaf(label int32) {
	b.starts = append(b.starts, len(b.out))
	if label >= 0 {
		b.out = append(b.out, labelRef{label, bdd.True})
	}
}

// split replaces the two topmost results, a node's 0-child and 1-child,
// with the node's own: a merge by label, one BDD node per label.
func (b *trieBuilder) split(length int) {
	n := len(b.starts)
	start, end := b.starts[n-2], len(b.out)
	lo, hi := b.out[start:b.starts[n-1]], b.out[b.starts[n-1]:end]
	b.starts = b.starts[:n-1]
	level := b.offset + length
	for i, j := 0, 0; i < len(lo) || j < len(hi); {
		var label int32
		low, high := bdd.False, bdd.False
		switch {
		case j == len(hi) || i < len(lo) && lo[i].label < hi[j].label:
			label, low = lo[i].label, lo[i].ref
			i++
		case i == len(lo) || hi[j].label < lo[i].label:
			label, high = hi[j].label, hi[j].ref
			j++
		default:
			label, low, high = lo[i].label, lo[i].ref, hi[j].ref
			i, j = i+1, j+1
		}
		b.out = append(b.out, labelRef{label, b.d.Node(level, low, high)})
	}
	b.out = b.out[:start+copy(b.out[start:], b.out[end:])]
}

// PortPredicateDelta records the change to one port's forwarding predicate
// caused by a table mutation: the predicate went from Old to New. Ports whose
// predicate is unchanged are not reported.
type PortPredicateDelta struct {
	Port     int
	Old, New bdd.Ref
}

// DeltaPortPredicates recomputes port predicates after table mutations whose
// LPM cones are given, touching only the header region the cones cover. t is
// the table after the mutations; old yields the pre-mutation predicate of a
// port. The result lists every port whose predicate actually changed, and
// the region the cones cover, the union of their Region prefixes, outside
// which none of them changed (False when no cone names a port).
//
// LPM is per-packet local: the winners inside a cone region are decided by
// the rules inside it and the one rule that wins the region's block from
// outside. So each maximal region g is converted like a whole table, by
// one trie walk of the index run inside g that starts from g's winner; its
// predicates are lifted above g with one node per bit of g's prefix, and
// each changed predicate is stitched as (old minus region) or (winners
// within region). Ports outside the cones' port sets are untouched by the
// rule.Cone contract and are never even read.
func DeltaPortPredicates(d *bdd.DD, layout *header.Layout, dstField string, t *rule.FwdTable, cones []rule.Cone, numPorts int, old func(port int) bdd.Ref) ([]PortPredicateDelta, bdd.Ref) {
	// Candidate ports form an interval-coded set: cone port lists are
	// dense index runs, so the set stays a few intervals no matter how
	// many ports a batch touches.
	candidates := EmptyAtomSet
	for _, c := range cones {
		for _, p := range c.Ports {
			if p < 0 || p >= numPorts {
				panic(fmt.Sprintf("predicate: cone port %d out of range [0,%d)", p, numPorts))
			}
			candidates = candidates.Union(AtomRange(int32(p), int32(p)+1))
		}
	}
	if candidates.Empty() {
		return nil, bdd.False
	}
	// In (value, length) order a region comes before every region inside
	// it, so one pass keeps the maximal ones.
	regions := make([]rule.Prefix, len(cones))
	for i, c := range cones {
		regions[i] = c.Region
	}
	slices.SortFunc(regions, func(a, b rule.Prefix) int {
		return cmp.Or(cmp.Compare(a.Value, b.Value), cmp.Compare(a.Length, b.Length))
	})
	maximal := regions[:0]
	for _, g := range regions {
		if len(maximal) == 0 || !maximal[len(maximal)-1].Contains(g) {
			maximal = append(maximal, g)
		}
	}
	b := trieBuilder{d: d, offset: prefixField(layout, dstField).Offset}
	within := make([]bdd.Ref, numPorts)
	for i := range within {
		within[i] = bdd.False
	}
	for _, g := range maximal {
		for _, e := range b.walk([]*rule.FwdTable{t}, g, portLabel(numPorts)) {
			f := e.ref
			for i := g.Length - 1; i >= 0; i-- {
				if g.Value&(1<<(31-i)) != 0 {
					f = d.Node(b.offset+i, bdd.False, f)
				} else {
					f = d.Node(b.offset+i, f, bdd.False)
				}
			}
			within[e.label] = d.Or(within[e.label], f)
		}
	}
	region := coneRegion(d, layout, dstField, cones)
	var deltas []PortPredicateDelta
	candidates.Each(func(port int32) bool {
		prev := old(int(port))
		next := d.Or(d.Diff(prev, region), within[port])
		if next != prev {
			deltas = append(deltas, PortPredicateDelta{Port: int(port), Old: prev, New: next})
		}
		return true
	})
	return deltas, region
}

// coneRegion returns the header region the cones cover: the union of their
// Region prefixes over dstField.
func coneRegion(d *bdd.DD, layout *header.Layout, dstField string, cones []rule.Cone) bdd.Ref {
	region := bdd.False
	for _, c := range cones {
		region = d.Or(region, PrefixBDD(d, layout, dstField, c.Region))
	}
	return region
}

// Match5BDD returns the BDD of a 5-tuple match condition. The layout must
// contain every field the condition constrains non-trivially; a condition
// on a field the layout lacks panics, because it could not be represented
// faithfully.
func Match5BDD(d *bdd.DD, layout *header.Layout, m rule.Match5) bdd.Ref {
	r := bdd.True
	usePrefix := func(field string, p rule.Prefix) {
		if p.Length == 0 {
			return
		}
		r = d.And(r, PrefixBDD(d, layout, field, p))
	}
	usePrefix("srcIP", m.Src)
	usePrefix("dstIP", m.Dst)
	useRange := func(field string, pr rule.PortRange) {
		if pr == rule.AnyPort {
			return
		}
		f := layout.MustField(field)
		r = d.And(r, d.FromRange(f.Offset, uint64(pr.Lo), uint64(pr.Hi), f.Width))
	}
	useRange("srcPort", m.SrcPort)
	useRange("dstPort", m.DstPort)
	if m.Proto != rule.AnyProto {
		f := layout.MustField("proto")
		r = d.And(r, d.FromValue(f.Offset, uint64(m.Proto), f.Width))
	}
	return r
}

// ACLPredicate converts a first-match ACL into its permit predicate: the
// set of packets the ACL allows through.
func ACLPredicate(d *bdd.DD, layout *header.Layout, a *rule.ACL) bdd.Ref {
	permit := bdd.False
	shadow := bdd.False
	for _, r := range a.Rules {
		match := Match5BDD(d, layout, r.Match)
		eff := d.Diff(match, shadow)
		if eff != bdd.False && r.Action == rule.Permit {
			permit = d.Or(permit, eff)
		}
		shadow = d.Or(shadow, match)
		if shadow == bdd.True {
			break
		}
	}
	if a.Default == rule.Permit {
		permit = d.Or(permit, d.Not(shadow))
	}
	return permit
}
