package apclassifier

import (
	"bytes"
	"math/rand"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/obs"
	"apclassifier/internal/rule"
)

// ruleDeltaProgram is a fixed-seed program of single-rule deltas on the
// classifier's own tables: each step installs a more-specific child of an
// existing rule, routed to a different port than the rule it refines, or
// — once eight children are installed — removes the oldest one. Every add
// changes some behaviour, so each step re-cuts atoms. It draws against its
// own copy of the dataset, which it returns in the program's final state.
func ruleDeltaProgram(cfg netgen.Config, seed int64, steps int) ([][]RuleDelta, *netgen.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	var installed []RuleDelta
	prog := make([][]RuleDelta, 0, steps)
	shadow := netgen.Internet2Like(cfg)
	for len(prog) < steps {
		if len(installed) > 8 {
			dl := installed[0]
			installed = installed[1:]
			shadow.Boxes[dl.Box].Fwd.Remove(dl.Prefix)
			prog = append(prog, []RuleDelta{dl})
			continue
		}
		box := rng.Intn(len(shadow.Boxes))
		spec := &shadow.Boxes[box]
		r, ok := churnChild(&spec.Fwd, rng)
		if !ok {
			continue
		}
		if p := rng.Intn(spec.NumPorts); p != r.Port {
			r.Port = p
		} else {
			r.Port = (p + 1) % spec.NumPorts
		}
		spec.Fwd.Add(r)
		installed = append(installed, RuleDelta{Op: OpRemoveFwdRule, Box: box, Prefix: r.Prefix})
		prog = append(prog, []RuleDelta{{Op: OpAddFwdRule, Box: box, Rule: r}})
	}
	return prog, shadow
}

// TestRuleDeltaWorkIsLocal pins the cost of a rule change in exact work
// counts rather than time: 200 single-rule deltas on Internet2 ×0.2, on
// one goroutine, read the BDD apply-op counter and the delta engine's
// touched-leaf counter. The counts are deterministic (the same program
// gives the same numbers in every process), so a bound on them is a
// noise-free regression gate. Removing each changed port predicate and
// adding its successor, which re-cut every leaf, cost 3,927,834 apply ops
// and 45,386 touched leaves (≈ 227 per publish) on this program; replacing
// it over the cone, which re-cuts only the leaves that meet the cone, must
// stay an order of magnitude below the leaves, and within 10% of the
// build's recorded apply-op count (ruleDeltaApplyOps).
func TestRuleDeltaWorkIsLocal(t *testing.T) {
	cfg := netgen.Config{Seed: 1, RuleScale: 0.2}
	c, err := New(netgen.Internet2Like(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, final := ruleDeltaProgram(cfg, 7, 200)
	touched := obs.Default.Counter("apc_delta_touched_leaves_total", "")
	publishes := obs.Default.Counter("apc_aptree_snapshot_publishes_total", "")
	ops0, touched0, pub0 := c.Manager.DD().Stats().Ops, touched.Value(), publishes.Value()
	for i, batch := range prog {
		if err := c.ApplyRuleDeltas(batch); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	ops := c.Manager.DD().Stats().Ops - ops0
	leaves := touched.Value() - touched0
	pubs := publishes.Value() - pub0
	t.Logf("%d deltas, %d publishes: %d apply ops, %d touched leaves", len(prog), pubs, ops, leaves)
	if pubs == 0 {
		t.Fatal("no delta published")
	}
	if per := float64(leaves) / float64(pubs); per > 9 {
		t.Errorf("%.1f touched leaves per publish, want ≤ 9", per)
	}
	if limit := uint64(ruleDeltaApplyOps) * 11 / 10; ops > limit {
		t.Errorf("%d apply ops, want ≤ %d (the recorded %d plus 10%%)", ops, limit, ruleDeltaApplyOps)
	}

	fresh, err := New(final, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Manager.Tree().NumLeaves(), fresh.Manager.Tree().NumLeaves(); got != want {
		t.Errorf("%d leaves after the deltas, cold build has %d: the partition is not the coarsest", got, want)
	}
}

// TestRuleDeltaReadsAndEmitsLocally pins the two costs around the tree in
// exact counts, on the same 200-delta Internet2 ×0.2 program: rule-table
// entries read per delta (apc_rule_entries_examined_total) and flat nodes
// planned and emitted per publish (apc_flat_nodes_emitted_total). The
// slice scans the prefix index replaced read the whole box table twice per
// add (the covering rules, the rules overlapping the cone) and three times
// per remove (the compaction too); the test derives that count from the
// table sizes and requires the index to read at least 50× less (it reads
// about 95× less). A publish
// that recompiled the whole flat core emitted every node; the incremental
// one must emit at least 10× fewer.
func TestRuleDeltaReadsAndEmitsLocally(t *testing.T) {
	cfg := netgen.Config{Seed: 1, RuleScale: 0.2}
	c, err := New(netgen.Internet2Like(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := ruleDeltaProgram(cfg, 7, 200)
	examined := obs.Default.Counter("apc_rule_entries_examined_total", "")
	emitted := obs.Default.Counter("apc_flat_nodes_emitted_total", "")
	publishes := obs.Default.Counter("apc_aptree_snapshot_publishes_total", "")
	ex0, em0, pub0 := examined.Value(), emitted.Value(), publishes.Value()
	var scans, nodes uint64
	for i, batch := range prog {
		tbl := &c.Dataset.Boxes[batch[0].Box].Fwd
		before := uint64(len(tbl.Rules))
		if err := c.ApplyRuleDeltas(batch); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		// Add: covering rules before, overlapping rules after. Remove:
		// the compaction, then covering and overlapping rules after.
		after := uint64(len(tbl.Rules))
		if batch[0].Op == OpAddFwdRule {
			scans += before + after
		} else {
			scans += before + 2*after
		}
		nodes += uint64(c.Manager.Snapshot().Flat().Stats().Nodes)
	}
	reads, emits, pubs := examined.Value()-ex0, emitted.Value()-em0, publishes.Value()-pub0
	t.Logf("%d deltas: %d rule entries read (scans: %d), %d publishes: %d flat nodes emitted of %d published",
		len(prog), reads, scans, pubs, emits, nodes)
	if pubs != uint64(len(prog)) {
		t.Fatalf("%d publishes for %d deltas", pubs, len(prog))
	}
	if reads*50 > scans {
		t.Errorf("%d rule entries read, want ≤ %d (a fiftieth of the scans' %d)", reads, scans/50, scans)
	}
	if emits*10 > nodes {
		t.Errorf("%d flat nodes emitted, want ≤ %d (a tenth of the %d published)", emits, nodes/10, nodes)
	}
}

// TestFlatPlannerStaysBounded runs the 3,000-delta program on Internet2
// without a Reconstruct. Every Replace mints a predicate ref, and the flat
// planner caches a lowering plan per ref it has seen; it must drop the
// plans of refs no live predicate holds, so that after the program it
// holds at most twice as many plans as there are live predicates. The
// refs a delta mints do not depend on the table size, so ×0.02 keeps the
// apdebug build, which re-derives every edited table whole, quick.
func TestFlatPlannerStaysBounded(t *testing.T) {
	cfg := netgen.Config{Seed: 1, RuleScale: 0.02}
	c, err := New(netgen.Internet2Like(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := ruleDeltaProgram(cfg, 7, 3000)
	for i, batch := range prog {
		if err := c.ApplyRuleDeltas(batch); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	plans := obs.Default.Gauge("apc_flat_plans", "").Value()
	live := c.Manager.NumLive()
	t.Logf("after %d deltas: %d plans cached, %d live predicates", len(prog), plans, live)
	if plans > int64(2*live) {
		t.Errorf("%d plans cached for %d live predicates, want ≤ %d", plans, live, 2*live)
	}
}

// TestApplyRuleDeltasTornBatch holds ApplyRuleDeltas to its contract that
// an error means no mutation: a batch whose second delta cannot be applied
// — a port ACL set on a box whose PortACL map was dropped behind the
// classifier's back — must be refused before its first delta, a drop of
// half the address space, touches the rule tables. New itself gives a
// hand-built spec without a map one.
func TestApplyRuleDeltasTornBatch(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 3, RuleScale: 0.01})
	ds.Boxes[1].PortACL = nil
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Boxes[1].PortACL == nil {
		t.Error("New left box 1 without a PortACL map")
	}
	ds.Boxes[1].PortACL = nil

	rng := rand.New(rand.NewSource(4))
	type probe struct {
		ingress int
		pkt     []byte
	}
	probes := make([]probe, 300)
	for i := range probes {
		probes[i] = probe{rng.Intn(len(ds.Boxes)), ds.PacketFromFields(ds.RandomFields(rng))}
	}
	answers := func() []string {
		out := make([]string, len(probes))
		for i, p := range probes {
			out[i] = c.Behavior(p.ingress, p.pkt).String()
		}
		return out
	}
	write := func() []byte {
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	beforeBytes, beforeAnswers := write(), answers()

	batch := []RuleDelta{
		{Op: OpAddFwdRule, Box: 1, Rule: rule.FwdRule{Prefix: rule.P(0x80000000, 1), Port: rule.Drop}},
		{Op: OpSetPortACL, Box: 1, Port: 0, ACL: &rule.ACL{Default: rule.Permit}},
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("ApplyRuleDeltas panicked: %v", r)
			}
		}()
		if err := c.ApplyRuleDeltas(batch); err == nil {
			t.Error("a port ACL set on a nil PortACL map was accepted")
		}
	}()
	if !bytes.Equal(write(), beforeBytes) {
		t.Error("a refused batch changed the rule tables")
	}
	for i, got := range answers() {
		if got != beforeAnswers[i] {
			t.Fatalf("probe %d: a refused batch changed the answer from %s to %s", i, beforeAnswers[i], got)
		}
	}
}
