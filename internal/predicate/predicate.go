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
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// PrefixBDD returns the BDD for an IPv4 prefix constraint over the named
// 32-bit field of the layout.
func PrefixBDD(d *bdd.DD, layout *header.Layout, field string, p rule.Prefix) bdd.Ref {
	f := layout.MustField(field)
	if f.Width != 32 {
		panic(fmt.Sprintf("predicate: field %q is %d bits, prefixes need 32", field, f.Width))
	}
	return d.FromPrefix(f.Offset, uint64(p.Value), p.Length, 32)
}

// PortPredicates converts a longest-prefix-match forwarding table into one
// predicate per output port: preds[i] is true exactly for the packets the
// table forwards to port i. Packets matched by a Drop rule, or matched by
// no rule, belong to no port predicate.
//
// The conversion walks rules in decreasing prefix length, maintaining the
// BDD of already-shadowed packets, so each rule contributes only the
// packets it actually wins (the AP Verifier construction).
func PortPredicates(d *bdd.DD, layout *header.Layout, dstField string, t *rule.FwdTable, numPorts int) []bdd.Ref {
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
// port. The result lists every port whose predicate actually changed.
//
// The construction exploits that LPM is per-packet local: the winners inside
// the cone regions are determined by the rules overlapping those regions
// alone, so the shadow walk of PortPredicates is replayed with every match
// intersected with the region union, and each changed predicate is stitched
// as (old minus region) or (winners within region). The table's prefix
// index yields those rules — the ones containing a region and the ones a
// region contains — without reading the rest of the table. Ports outside
// the cones' port sets are untouched by the rule.Cone contract and are
// never even read.
func DeltaPortPredicates(d *bdd.DD, layout *header.Layout, dstField string, t *rule.FwdTable, cones []rule.Cone, numPorts int, old func(port int) bdd.Ref) []PortPredicateDelta {
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
		return nil
	}
	regions := make([]rule.Prefix, len(cones))
	for i, c := range cones {
		regions[i] = c.Region
	}
	region := ConeRegion(d, layout, dstField, cones)
	within := make([]bdd.Ref, numPorts)
	for i := range within {
		within[i] = bdd.False
	}
	shadow := bdd.False
	// A rule missing every region has match ∧ region = False, so only the
	// overlapping rules are walked; skipping the rest is exact.
	for _, ri := range t.OverlappingByDescendingLength(regions) {
		r := t.Rules[ri]
		match := d.And(PrefixBDD(d, layout, dstField, r.Prefix), region)
		eff := d.Diff(match, shadow)
		if eff != bdd.False && r.Port != rule.Drop {
			if r.Port < 0 || r.Port >= numPorts {
				panic(fmt.Sprintf("predicate: rule port %d out of range [0,%d)", r.Port, numPorts))
			}
			within[r.Port] = d.Or(within[r.Port], eff)
		}
		shadow = d.Or(shadow, match)
		if shadow == region {
			break
		}
	}
	var deltas []PortPredicateDelta
	candidates.Each(func(port int32) bool {
		prev := old(int(port))
		next := d.Or(d.Diff(prev, region), within[port])
		if next != prev {
			deltas = append(deltas, PortPredicateDelta{Port: int(port), Old: prev, New: next})
		}
		return true
	})
	return deltas
}

// ConeRegion returns the header region the cones cover: the union of their
// Region prefixes over dstField. Every port predicate DeltaPortPredicates
// reports differs from its old value only inside it.
func ConeRegion(d *bdd.DD, layout *header.Layout, dstField string, cones []rule.Cone) bdd.Ref {
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
