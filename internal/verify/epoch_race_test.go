package verify

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// raceNet is a three-box star: a (port 0 → h1, port 1 → b, port 2 → c),
// b (port 0 → h2, port 1 → a) and c (port 0 → h3, port 1 → a). At start,
// a's port 2 and the a-facing ports of b and c forward nothing.
func raceNet() *netgen.Dataset {
	ds := &netgen.Dataset{Name: "race", Layout: netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.01}).Layout}
	ds.Boxes = []netgen.BoxSpec{
		{Name: "a", NumPorts: 3, PortACL: map[int]*rule.ACL{}},
		{Name: "b", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
		{Name: "c", NumPorts: 2, PortACL: map[int]*rule.ACL{}},
	}
	ds.Links = []netgen.Link{{A: 0, PA: 1, B: 1, PB: 1}, {A: 0, PA: 2, B: 2, PB: 1}}
	ds.Hosts = []netgen.Host{{Box: 0, Port: 0, Name: "h1"}, {Box: 1, Port: 0, Name: "h2"}, {Box: 2, Port: 0, Name: "h3"}}
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 0}) // 10/8 → h1
	ds.Boxes[0].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x14000000, 8), Port: 1}) // 20/8 → b
	ds.Boxes[1].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x14000000, 8), Port: 0}) // 20/8 → h2
	ds.Boxes[2].Fwd.Add(rule.FwdRule{Prefix: rule.P(0x1E000000, 8), Port: 0}) // 30/8 → h3
	return ds
}

// denyDst is an ACL that denies one destination prefix and permits the
// rest.
func denyDst(p rule.Prefix) *rule.ACL {
	m := rule.MatchAll()
	m.Dst = p
	return &rule.ACL{Rules: []rule.ACLRule{{Match: m, Action: rule.Deny}}, Default: rule.Permit}
}

// raceCycle is a cycle of batches that ends where it starts. Each batch
// changes several answers at once, so an answer drawn from two states
// matches neither: ports start and stop forwarding (a's port 2, b's and
// c's a-facing ports), and in-ACLs and port ACLs are set and cleared.
func raceCycle() [][]apclassifier.RuleDelta {
	add := func(box int, p rule.Prefix, port int) apclassifier.RuleDelta {
		return apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: rule.FwdRule{Prefix: p, Port: port}}
	}
	remove := func(box int, p rule.Prefix) apclassifier.RuleDelta {
		return apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: p}
	}
	inACL := func(box int, acl *rule.ACL) apclassifier.RuleDelta {
		return apclassifier.RuleDelta{Op: apclassifier.OpSetInACL, Box: box, ACL: acl}
	}
	portACL := func(box, port int, acl *rule.ACL) apclassifier.RuleDelta {
		return apclassifier.RuleDelta{Op: apclassifier.OpSetPortACL, Box: box, Port: port, ACL: acl}
	}
	p10, p20, p30 := rule.P(0x0A000000, 8), rule.P(0x14000000, 8), rule.P(0x1E000000, 8)
	p10x1, p20x1, p30x1 := rule.P(0x0A010000, 16), rule.P(0x14010000, 16), rule.P(0x1E010000, 16)
	return [][]apclassifier.RuleDelta{
		{add(0, p30, 2), inACL(2, denyDst(p30x1))},                    // a's port 2 starts forwarding; c drops 30.1/16
		{portACL(0, 1, denyDst(p20x1)), add(1, p10, 1)},               // a's port 1 drops 20.1/16; b's port 1 starts
		{inACL(0, denyDst(p10x1)), remove(0, p30)},                    // a drops 10.1/16; a's port 2 stops
		{add(2, p20, 1), add(0, p30, 2), portACL(0, 1, nil)},          // c's port 1 and a's port 2 start; port ACL cleared
		{remove(1, p10), inACL(2, nil), inACL(0, nil)},                // b's port 1 stops; both in-ACLs cleared
		{remove(2, p20), remove(0, p30), portACL(0, 2, denyDst(p30))}, // c's port 1 and a's port 2 stop
		{portACL(0, 2, nil)},                                          // back to the start
	}
}

// raceProbe is one query: an ingress box and a header.
type raceProbe struct {
	ingress int
	f       rule.Fields
}

func raceProbes() []raceProbe {
	var out []raceProbe
	for ingress := 0; ingress < 3; ingress++ {
		for _, dst := range []uint32{0x0A000001, 0x0A010001, 0x14000001, 0x14010001, 0x1E000001, 0x1E010001, 0x28000001} {
			out = append(out, raceProbe{ingress, rule.Fields{Src: 0x01020304, Dst: dst, Proto: 6}})
		}
	}
	return out
}

// oracleAnswer renders a Simulate result in the form behaviorAnswer
// renders a walk: delivered hosts, then drop boxes, then the loop flag.
func oracleAnswer(r netgen.SimResult) string {
	hosts := append([]string(nil), r.Delivered...)
	sort.Strings(hosts)
	drops := append([]int(nil), r.DropBoxes...)
	sort.Ints(drops)
	return fmt.Sprintf("%v %v %v", hosts, drops, r.Looped)
}

func behaviorAnswer(b *network.Behavior) string {
	var hosts []string
	for _, d := range b.Deliveries {
		hosts = append(hosts, d.Host)
	}
	sort.Strings(hosts)
	var drops []int
	looped := false
	for _, d := range b.Drops {
		if d.Reason == network.DropLoop {
			looped = true
			continue
		}
		drops = append(drops, d.Box)
	}
	sort.Ints(drops)
	return fmt.Sprintf("%v %v %v", hosts, drops, looped)
}

// raceState is the oracle at one published state: per probe, the
// Simulate answer, the hosts it reaches, and whether some branch dies
// for want of a route (in-ACL passed, no rule matched).
type raceState struct {
	answer    []string
	reaches   []map[string]bool
	blackhole []bool
}

func oracleState(ds *netgen.Dataset, probes []raceProbe) raceState {
	st := raceState{answer: make([]string, len(probes)), reaches: make([]map[string]bool, len(probes)), blackhole: make([]bool, len(probes))}
	for i, p := range probes {
		r := ds.Simulate(p.ingress, p.f)
		st.answer[i] = oracleAnswer(r)
		st.reaches[i] = map[string]bool{}
		for _, h := range r.Delivered {
			st.reaches[i][h] = true
		}
		for _, box := range r.DropBoxes {
			spec := &ds.Boxes[box]
			_, routed := spec.Fwd.Lookup(p.f.Dst)
			if (spec.InACL == nil || spec.InACL.Allows(p.f)) && !routed {
				st.blackhole[i] = true
			}
		}
	}
	return st
}

// matchesSome reports whether some state satisfies ok.
func matchesSome(states []raceState, ok func(st *raceState) bool) bool {
	for k := range states {
		if ok(&states[k]) {
			return true
		}
	}
	return false
}

// TestBehaviorUnderRuleDeltas runs every lock-free read path — Behavior,
// BehaviorWith, Snapshot().BehaviorBatch and a pinned verify.Analyzer's
// ReachSet and Blackholes — while a writer cycles through batches that
// make ports start and stop forwarding and set and clear in-ACLs and port
// ACLs. Each answer must equal the Simulate oracle at some published
// state; the answers of one batch query, or of one analyzer, must all
// come from the same state. Under -race it also proves that a walk reads
// nothing a batch writes: the wiring it tests is the pinned epoch's.
func TestBehaviorUnderRuleDeltas(t *testing.T) {
	cycle := raceCycle()
	probes := raceProbes()
	hosts := []string{"h1", "h2", "h3"}

	// The oracle: replay the cycle on a twin classifier's rule tables.
	twin := compile(t, raceNet())
	states := []raceState{oracleState(twin.Dataset, probes)}
	for i, batch := range cycle[:len(cycle)-1] {
		if err := twin.ApplyRuleDeltas(batch); err != nil {
			t.Fatalf("twin batch %d: %v", i, err)
		}
		states = append(states, oracleState(twin.Dataset, probes))
	}
	for k := 1; k < len(states); k++ {
		if strings.Join(states[k].answer, "|") == strings.Join(states[k-1].answer, "|") {
			t.Fatalf("batch %d changes no probe answer", k-1)
		}
	}

	ds := raceNet()
	c := compile(t, ds)
	pkts := make([][]byte, len(probes))
	ingress := make([]int, len(probes))
	for i, p := range probes {
		pkts[i] = ds.PacketFromFields(p.f)
		ingress[i] = p.ingress
	}

	const rounds = 30
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			for i, batch := range cycle {
				if err := c.ApplyRuleDeltas(batch); err != nil {
					t.Errorf("round %d batch %d: %v", r, i, err)
					return
				}
			}
		}
	}()

	var failed sync.Once
	fail := func(format string, args ...any) {
		failed.Do(func() { t.Errorf(format, args...) })
	}
	readers := []func(){
		func() { // Behavior, one probe at a time
			for i, p := range probes {
				got := behaviorAnswer(c.Behavior(p.ingress, pkts[i]))
				if !matchesSome(states, func(st *raceState) bool { return st.answer[i] == got }) {
					fail("Behavior probe %d: %s matches no published state", i, got)
				}
			}
		},
		func() { // BehaviorWith, through one reused Walker
			w := c.NewWalker()
			for i, p := range probes {
				got := behaviorAnswer(c.BehaviorWith(w, p.ingress, pkts[i]))
				if !matchesSome(states, func(st *raceState) bool { return st.answer[i] == got }) {
					fail("BehaviorWith probe %d: %s matches no published state", i, got)
				}
			}
		},
		func() { // one batch: every answer from one state
			buf := c.NewBatchBuffer()
			out := c.Snapshot().BehaviorBatch(buf, ingress, pkts)
			got := make([]string, len(out))
			for i, b := range out {
				got[i] = behaviorAnswer(b)
			}
			if !matchesSome(states, func(st *raceState) bool { return strings.Join(st.answer, "|") == strings.Join(got, "|") }) {
				fail("BehaviorBatch answers match no single published state: %v", got)
			}
		},
		func() { // one analyzer: every set from one state
			a := New(c)
			ok := matchesSome(states, func(st *raceState) bool {
				for i, p := range probes {
					if a.Blackholes(p.ingress).Contains(pkts[i]) != st.blackhole[i] {
						return false
					}
					for _, h := range hosts {
						if a.ReachSet(p.ingress, h).Contains(pkts[i]) != st.reaches[i][h] {
							return false
						}
					}
				}
				return true
			})
			if !ok {
				fail("an analyzer's ReachSet and Blackholes match no single published state")
			}
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				read()
				select {
				case <-done:
					return
				default:
				}
			}
		}(read)
	}
	wg.Wait()

	// The cycle ends where it started.
	for i, p := range probes {
		if got := behaviorAnswer(c.Behavior(p.ingress, pkts[i])); got != states[0].answer[i] {
			t.Fatalf("after %d rounds, probe %d answers %s, want %s", rounds, i, got, states[0].answer[i])
		}
	}
}
