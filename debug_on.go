//go:build apdebug

package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
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
// rules, and the whole-table PortPredicates, built in a scratch DD, must
// give each port exactly the predicate the epoch's wiring holds for it
// (carried into the scratch DD by Transfer). It runs inside the batch's
// Update, under the write lock, and only reads the live DD, so the work
// counters the release build is measured by do not move.
func (c *Classifier) debugCheckRederive(tx *aptree.Tx, w *network.Wiring, boxes []int) {
	live := tx.DD()
	scratch := bdd.New(live.NumVars())
	for _, box := range boxes {
		spec := &c.Dataset.Boxes[box]
		if err := spec.Fwd.CheckIndex(); err != nil {
			panic(fmt.Sprintf("apdebug: box %d: %v", box, err))
		}
		for p, want := range predicate.PortPredicates(scratch, c.Layout, "dstIP", &spec.Fwd, spec.NumPorts) {
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
