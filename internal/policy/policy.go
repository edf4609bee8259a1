// Package policy turns the flow properties of §I into declarative,
// checkable objects, and implements the controller workflow the paper
// opens with: *verify the data plane with the new updates before
// committing them*. A Guard applies a hypothetical rule, checks every
// registered property exactly (at atomic-predicate granularity), and
// keeps the rule only if no property breaks.
package policy

import (
	"fmt"

	"apclassifier"
	"apclassifier/internal/bdd"
	"apclassifier/internal/rule"
	"apclassifier/internal/verify"
)

// Kind enumerates the §I flow-property families.
type Kind int

// Property kinds.
const (
	// Reachable: some packet entering From is delivered to Host
	// (forwarding correctness for a service).
	Reachable Kind = iota
	// NotReachable: no packet entering From is delivered to Host
	// (drop compliance / tenant isolation at host granularity).
	NotReachable
	// Waypoint: every packet delivered to Host from From traverses Via
	// (policy enforcement: firewall/IDS on path).
	Waypoint
	// LoopFree: no packet from any ingress loops.
	LoopFree
	// Isolated: no packet entering From ever traverses box To
	// (VLAN/tenant isolation at box granularity).
	Isolated
)

func (k Kind) String() string {
	switch k {
	case Reachable:
		return "reachable"
	case NotReachable:
		return "not-reachable"
	case Waypoint:
		return "waypoint"
	case LoopFree:
		return "loop-free"
	case Isolated:
		return "isolated"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Property is one declarative flow property.
type Property struct {
	Kind Kind
	From int    // ingress box (Reachable, NotReachable, Waypoint, Isolated)
	Host string // target host (Reachable, NotReachable, Waypoint)
	Via  int    // required waypoint box (Waypoint)
	To   int    // forbidden box (Isolated)
	// Scope optionally restricts the property to a packet set (a BDD in
	// the classifier's live DD); bdd.False means "all packets".
	Scope bdd.Ref
}

// String renders the property for reports.
func (p Property) String() string {
	switch p.Kind {
	case Reachable:
		return fmt.Sprintf("reachable(from=%d, host=%s)", p.From, p.Host)
	case NotReachable:
		return fmt.Sprintf("not-reachable(from=%d, host=%s)", p.From, p.Host)
	case Waypoint:
		return fmt.Sprintf("waypoint(from=%d, host=%s, via=%d)", p.From, p.Host, p.Via)
	case LoopFree:
		return "loop-free()"
	case Isolated:
		return fmt.Sprintf("isolated(from=%d, to=%d)", p.From, p.To)
	}
	return "unknown()"
}

// Violation reports a broken property with an exact witness set.
type Violation struct {
	Property Property
	// Witness is the packet set demonstrating the violation (or the
	// emptiness that constitutes it, for Reachable). May be bdd.False
	// for Reachable violations (nothing reaches).
	Witness bdd.Ref
	Detail  string
}

// Check evaluates every property against the current data plane and
// returns the violations (empty = all hold). The classifier must be
// quiescent during the check.
func Check(c *apclassifier.Classifier, props []Property) []Violation {
	a := verify.New(c)
	d := c.Manager.DD()
	var out []Violation
	// Properties scope with arbitrary BDDs, so packet sets are
	// materialized as refs in the live DD (sound here: the check requires
	// quiescence, so the analyzer's pinned epoch is the live lineage).
	scope := func(p Property, ps verify.PacketSet) bdd.Ref {
		set := ps.UnionRef(d)
		if p.Scope != bdd.False {
			return d.And(set, p.Scope)
		}
		return set
	}
	describe := func(set bdd.Ref) string { return verify.DescribeRef(d, c.Layout, set) }
	for _, p := range props {
		switch p.Kind {
		case Reachable:
			set := scope(p, a.ReachSet(p.From, p.Host))
			if set == bdd.False {
				out = append(out, Violation{p, bdd.False, "no packet reaches the host"})
			}
		case NotReachable:
			set := scope(p, a.ReachSet(p.From, p.Host))
			if set != bdd.False {
				out = append(out, Violation{p, set, "packets reach a forbidden host: " + describe(set)})
			}
		case Waypoint:
			set := scope(p, a.WaypointViolations(p.From, p.Host, p.Via))
			if set != bdd.False {
				out = append(out, Violation{p, set, "packets bypass the waypoint: " + describe(set)})
			}
		case LoopFree:
			if loops := a.Loops(); len(loops) != 0 {
				out = append(out, Violation{p, bdd.False,
					fmt.Sprintf("%d (ingress, atom) pairs loop", len(loops))})
			}
		case Isolated:
			set := scope(p, a.CanReach(p.From, p.To))
			if set != bdd.False {
				out = append(out, Violation{p, set, "packets cross the isolation boundary: " + describe(set)})
			}
		}
	}
	return out
}

// Guard gates data-plane updates on a property set.
type Guard struct {
	c     *apclassifier.Classifier
	props []Property
}

// NewGuard builds a guard. The property set should already hold; use
// Check to establish that.
func NewGuard(c *apclassifier.Classifier, props []Property) *Guard {
	return &Guard{c: c, props: props}
}

// TryFwdRule implements the §I pre-update verification workflow: install r
// in place of any rule with the same prefix, re-check every property, and
// keep the change only if all still hold. On a violation the change is
// rolled back — r removed, the displaced rules reinstalled — and the
// violations are returned. A non-nil error means the update was refused
// before anything changed, or that the rollback itself failed.
func (g *Guard) TryFwdRule(box int, r rule.FwdRule) (committed bool, violations []Violation, err error) {
	// Replace, not append: an appended rule with an existing prefix loses
	// the LPM tie to the old one, and the check would see no change.
	rollback := []apclassifier.RuleDelta{{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: r.Prefix}}
	if box >= 0 && box < len(g.c.Dataset.Boxes) {
		for _, er := range g.c.Dataset.Boxes[box].Fwd.Rules {
			if er.Prefix == r.Prefix {
				rollback = append(rollback, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: er})
			}
		}
	}
	if err := g.c.ApplyRuleDeltas([]apclassifier.RuleDelta{
		{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: r.Prefix},
		{Op: apclassifier.OpAddFwdRule, Box: box, Rule: r},
	}); err != nil {
		return false, nil, err
	}
	if violations = Check(g.c, g.props); len(violations) == 0 {
		return true, nil, nil
	}
	return false, violations, g.c.ApplyRuleDeltas(rollback)
}
