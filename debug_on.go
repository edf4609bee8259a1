//go:build apdebug

package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// debugCheckWiring panics unless every predicate ID stage 2 can test —
// each box's ingress ACL, each port's forwarding predicate and egress ACL,
// each middlebox entry's match in the published epoch's wiring — is live
// in that same epoch. Walks
// probe no liveness: a removed ID must be unwired (NoPred or its
// successor) in the same Manager.Update, and a dangling one would
// silently read "matches nothing" (a forwarding port goes dark, an ACL
// denies everything). It runs once per ApplyRuleDeltas and per restore,
// never per query.
func (c *Classifier) debugCheckWiring() {
	s := c.Manager.Snapshot()
	w := network.WiringOf(s)
	check := func(what string, box, port int, id int32) {
		if id != network.NoPred && !s.IsLive(id) {
			panic(fmt.Sprintf("apdebug: box %d port %d: %s wired to dead predicate %d", box, port, what, id))
		}
	}
	for b := 0; b < w.NumBoxes(); b++ {
		check("ingress ACL", b, -1, w.InACL(b))
		if mb := w.Middlebox(b); mb != nil {
			for _, e := range mb.Entries {
				check("middlebox match", b, -1, e.Match)
			}
		}
		for p := 0; p < w.NumPorts(b); p++ {
			check("forwarding", b, p, w.Fwd(b, p))
			check("egress ACL", b, p, w.OutACL(b, p))
		}
	}
}

// debugCheckRederive re-derives from scratch what a rule-delta batch
// maintained incrementally, for every box whose forwarding table the
// batch edited: the table's prefix index is checked against a scan of its
// rules, and each port's predicate, re-derived in a scratch DD as the
// permit set of a first-match ACL over the whole table (its rules longest
// prefix first, ties in insertion order, permitting the port's own), must
// be exactly the predicate the region-stitched deltas left in the epoch's
// wiring (carried into the scratch DD by Transfer). The ACL conversion
// shares no code with the trie walk the deltas run and reads no index, so
// neither the BDD work counters nor the rule-entry counter the release
// build is measured by move. It runs inside the batch's Update, under the
// write lock.
func (c *Classifier) debugCheckRederive(tx *aptree.Tx, w *network.Wiring, boxes []int) {
	live := tx.DD()
	scratch := bdd.New(live.NumVars())
	for _, box := range boxes {
		spec := &c.Dataset.Boxes[box]
		if err := spec.Fwd.CheckIndex(); err != nil {
			panic(fmt.Sprintf("apdebug: box %d: %v", box, err))
		}
		order := spec.Fwd.ByDescendingLength()
		acl := rule.ACL{Default: rule.Deny, Rules: make([]rule.ACLRule, len(order))}
		for p := 0; p < spec.NumPorts; p++ {
			for i, ri := range order {
				r := spec.Fwd.Rules[ri]
				m := rule.MatchAll()
				m.Dst = r.Prefix
				acl.Rules[i] = rule.ACLRule{Match: m, Action: rule.Action(r.Port == p)}
			}
			want := predicate.ACLPredicate(scratch, c.Layout, &acl)
			got := bdd.False
			if id := w.Fwd(box, p); id != network.NoPred {
				got = bdd.Transfer(scratch, live, tx.Ref(id))
			}
			if got != want {
				panic(fmt.Sprintf("apdebug: box %d port %d: the delta-maintained forwarding predicate differs from a whole-table re-derivation", box, p))
			}
		}
	}
}
