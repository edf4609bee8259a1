package apclassifier

import (
	"fmt"
	"sort"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// RuleDeltaOp enumerates the data-plane mutations a RuleDelta can carry.
type RuleDeltaOp int

// Rule-delta operations.
const (
	// OpAddFwdRule installs Rule into Box's forwarding table.
	OpAddFwdRule RuleDeltaOp = iota
	// OpRemoveFwdRule removes all rules matching Prefix exactly from Box's
	// forwarding table; removing an absent prefix is a no-op.
	OpRemoveFwdRule
	// OpSetPortACL installs (or with a nil ACL removes) the egress ACL of
	// Box's Port.
	OpSetPortACL
	// OpSetInACL installs (or with a nil ACL removes) Box's ingress ACL.
	OpSetInACL
)

func (op RuleDeltaOp) String() string {
	switch op {
	case OpAddFwdRule:
		return "add-fwd"
	case OpRemoveFwdRule:
		return "remove-fwd"
	case OpSetPortACL:
		return "set-port-acl"
	case OpSetInACL:
		return "set-in-acl"
	}
	return fmt.Sprintf("RuleDeltaOp(%d)", int(op))
}

// RuleDelta is one data-plane mutation of a batched update transaction.
// Which fields are meaningful depends on Op; see the op constants.
type RuleDelta struct {
	Op     RuleDeltaOp
	Box    int
	Rule   rule.FwdRule // OpAddFwdRule
	Prefix rule.Prefix  // OpRemoveFwdRule
	Port   int          // OpSetPortACL
	ACL    *rule.ACL    // OpSetPortACL / OpSetInACL; nil clears
}

// validateDelta rejects a delta that names a box or port outside the
// dataset, before anything is mutated.
func (c *Classifier) validateDelta(dl RuleDelta) error {
	if dl.Box < 0 || dl.Box >= len(c.Dataset.Boxes) {
		return fmt.Errorf("unknown box %d", dl.Box)
	}
	spec := &c.Dataset.Boxes[dl.Box]
	switch dl.Op {
	case OpAddFwdRule:
		if dl.Rule.Port != rule.Drop && (dl.Rule.Port < 0 || dl.Rule.Port >= spec.NumPorts) {
			return fmt.Errorf("rule port %d out of range [0,%d)", dl.Rule.Port, spec.NumPorts)
		}
	case OpRemoveFwdRule:
	case OpSetPortACL:
		if dl.Port < 0 || dl.Port >= spec.NumPorts {
			return fmt.Errorf("port %d out of range [0,%d)", dl.Port, spec.NumPorts)
		}
		if spec.PortACL == nil {
			// New gives every box a map; only a spec edited behind the
			// classifier's back lacks one.
			return fmt.Errorf("box %d has a nil PortACL map", dl.Box)
		}
	case OpSetInACL:
	default:
		return fmt.Errorf("unknown op %d", int(dl.Op))
	}
	return nil
}

// ApplyRuleDeltas applies a batch of data-plane mutations as one update
// transaction. It (with ApplyRuleDeltasSeq) is the only way to change a
// classifier's rules: the server's /rules/batch firehose, the cluster, the
// policy guard and cmd/apsoak all build a []RuleDelta and call it.
//
// Everything that can fail — the whole batch's validation against the
// dataset — runs before anything is touched; an error means no mutation
// happened. The forwarding-table mutations report their LPM cones
// (rule.Cone), so only the port predicates whose covering set actually
// changed are recomputed, from the rules overlapping the cones alone
// (predicate.DeltaPortPredicates). A changed predicate keeps its ID: the
// tree re-cuts only the leaves that meet the box's cone region
// (Tx.Replace), and a port is rewired only when it starts or stops
// forwarding (Tx.Add, Tx.Remove). An ACL change is a Replace over old ⊕
// new.
//
// It all runs under a single Manager.Update, which publishes the new
// tree together with the next network.Wiring — a copy of the previous
// one that owns only the rows of the boxes the batch rewires — in one
// atomic store. A query, a verify.Analyzer or a checkpoint pins one
// snapshot and so sees the whole pre-batch or the whole post-batch data
// plane, never a mix, and no slot names a removed ID (stage 2 probes no
// liveness; the apdebug build asserts it). Callers must externally
// synchronize with each other, because the batch edits the Dataset's
// rule tables in place (the server holds its write lock); queries need
// no synchronization.
func (c *Classifier) ApplyRuleDeltas(deltas []RuleDelta) error {
	_, err := c.ApplyRuleDeltasSeq(0, deltas)
	return err
}

// ApplyRuleDeltasSeq is ApplyRuleDeltas for a sequenced firehose: batches
// carry monotonically increasing sequence numbers, and a batch whose seq is
// at or below the last applied one is acknowledged without being applied
// (applied == false), making redelivery after a reconnect or a warm restart
// idempotent. seq 0 means unsequenced and always applies. The cursor is
// published with the batch's epoch and recorded in checkpoints (see
// CheckpointSource), so a restored classifier resumes rejecting
// already-applied deltas.
func (c *Classifier) ApplyRuleDeltasSeq(seq uint64, deltas []RuleDelta) (applied bool, err error) {
	if seq != 0 && seq <= c.DeltaSeq() {
		return false, nil
	}
	for i, dl := range deltas {
		if err := c.validateDelta(dl); err != nil {
			return false, fmt.Errorf("apclassifier: delta %d: %w", i, err)
		}
	}

	// Mutate the dataset first, collecting per-box LPM cones. The cones
	// are exact against the final table: DeltaPortPredicates recomputes
	// winners inside the union of regions from the post-batch table, and
	// nothing outside the union changed.
	cones := make(map[int][]rule.Cone)
	type aclOp struct {
		box, port int // port == -1 for box ingress ACLs
		acl       *rule.ACL
	}
	var aclOps []aclOp
	for _, dl := range deltas {
		spec := &c.Dataset.Boxes[dl.Box]
		switch dl.Op {
		case OpAddFwdRule:
			cones[dl.Box] = append(cones[dl.Box], spec.Fwd.AddWithCone(dl.Rule))
		case OpRemoveFwdRule:
			if cone, ok := spec.Fwd.RemoveWithCone(dl.Prefix); ok {
				cones[dl.Box] = append(cones[dl.Box], cone)
			}
		case OpSetPortACL:
			if dl.ACL == nil {
				delete(spec.PortACL, dl.Port)
			} else {
				spec.PortACL[dl.Port] = dl.ACL
			}
			aclOps = append(aclOps, aclOp{dl.Box, dl.Port, dl.ACL})
		case OpSetInACL:
			spec.InACL = dl.ACL
			aclOps = append(aclOps, aclOp{dl.Box, -1, dl.ACL})
		}
	}
	if len(cones) == 0 && len(aclOps) == 0 && seq == 0 {
		return true, nil
	}

	boxes := make([]int, 0, len(cones))
	for box := range cones {
		boxes = append(boxes, box)
	}
	sort.Ints(boxes)

	c.Manager.Update(func(tx *aptree.Tx) {
		d := tx.DD()
		w := tx.Data().(*network.Wiring).Next()
		if seq != 0 {
			w.Seq = seq
		}
		for _, box := range boxes {
			spec := &c.Dataset.Boxes[box]
			pd := predicate.DeltaPortPredicates(d, c.Layout, "dstIP", &spec.Fwd,
				cones[box], spec.NumPorts, func(port int) bdd.Ref {
					if id := w.Fwd(box, port); id != network.NoPred {
						return tx.Ref(id)
					}
					return bdd.False
				})
			region := predicate.ConeRegion(d, c.Layout, "dstIP", cones[box])
			for _, dp := range pd {
				switch id := w.Fwd(box, dp.Port); {
				case id == network.NoPred:
					w.SetFwd(box, dp.Port, tx.Add(dp.New))
				case dp.New == bdd.False:
					tx.Remove(id)
					w.SetFwd(box, dp.Port, network.NoPred)
				default:
					tx.Replace(id, dp.New, region)
				}
			}
		}
		for _, op := range aclOps {
			id := w.InACL(op.box)
			if op.port >= 0 {
				id = w.OutACL(op.box, op.port)
			}
			switch {
			case id == network.NoPred && op.acl == nil:
				continue
			case id == network.NoPred:
				id = tx.Add(predicate.ACLPredicate(d, c.Layout, op.acl))
			case op.acl == nil:
				tx.Remove(id)
				id = network.NoPred
			default:
				old, next := tx.Ref(id), predicate.ACLPredicate(d, c.Layout, op.acl)
				if next != old {
					tx.Replace(id, next, d.Xor(old, next))
				}
				continue
			}
			if op.port < 0 {
				w.SetInACL(op.box, id)
			} else {
				w.SetOutACL(op.box, op.port, id)
			}
		}
		c.debugCheckRederive(tx, w, boxes)
		tx.SetData(w)
	})
	c.debugCheckWiring()
	return true, nil
}

// DeltaSeq reports the sequence number of the last applied sequenced
// rule-delta batch (0 if none), as of the published epoch.
func (c *Classifier) DeltaSeq() uint64 { return network.WiringOf(c.Manager.Snapshot()).Seq }
