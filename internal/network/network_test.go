package network

import (
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
)

// fig1Net builds the paper's running example (Fig. 1(c)/Fig. 3): boxes b1
// and b2, hosts h1 and h2, and predicates p1 (b1→h1), p2 (b1→b2),
// p3 (b2→h2) over an 8-bit toy header.
func fig1Net(t *testing.T) (*Network, *aptree.Manager, [3]int32) {
	t.Helper()
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p1 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b00000000, 2, 8) })
	p2 := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.Or(d.FromPrefix(0, 0b01000000, 2, 8), d.FromPrefix(0, 0b10000000, 2, 8))
	})
	p3 := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.Or(d.FromPrefix(0, 0b10000000, 2, 8), d.FromPrefix(0, 0b11000000, 3, 8))
	})

	n := New()
	b1 := n.AddBox("b1", 2)
	b2 := n.AddBox("b2", 2)
	n.AttachHost(b1, 0, "h1")
	n.Link(b1, 1, b2, 1)
	n.AttachHost(b2, 0, "h2")
	rewire(n, m, func(w *Wiring) {
		w.SetFwd(b1, 0, p1)
		w.SetFwd(b1, 1, p2)
		w.SetFwd(b2, 0, p3)
	})
	return n, m, [3]int32{p1, p2, p3}
}

// rewire publishes the next epoch's wiring: edit applies to a successor
// of the current one (an empty wiring for n on the first call).
func rewire(n *Network, m *aptree.Manager, edit func(w *Wiring)) {
	m.Update(func(tx *aptree.Tx) {
		w, _ := tx.Data().(*Wiring)
		if w == nil {
			ports := make([]int, len(n.Boxes))
			for b, box := range n.Boxes {
				ports[b] = len(box.Ports)
			}
			w = NewWiring(ports)
		} else {
			w = w.Next()
		}
		edit(w)
		tx.SetData(w)
	})
}

// classify runs stage 1 in the published epoch.
func classify(m *aptree.Manager, pkt []byte) *aptree.Node {
	leaf, _ := m.Classify(pkt)
	return leaf
}

// walk classifies pkt in the published epoch and walks it from ingress
// against that same epoch.
func walk(n *Network, m *aptree.Manager, ingress int, pkt []byte) *Behavior {
	s := m.Snapshot()
	leaf, _ := s.Classify(pkt)
	return n.Behavior(s, ingress, pkt, leaf)
}

func TestPaperFig3ForwardingPath(t *testing.T) {
	n, m, _ := fig1Net(t)
	b1, b2 := n.BoxByName("b1"), n.BoxByName("b2")

	// A packet in a4 = ¬p1∧p2∧p3 (pattern 10******) entering b1 follows
	// b1 → b2 → h2.
	pkt := []byte{0b10000001}
	b := walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("a4 packet must reach h2: %v", b)
	}
	if got := b.Path(); len(got) != 2 || got[0] != b1 || got[1] != b2 {
		t.Fatalf("path = %v, want [b1 b2]", got)
	}
	if len(b.Drops) != 0 {
		t.Fatalf("unexpected drops: %v", b.Drops)
	}
	if !b.Traverses(b1) || !b.Traverses(b2) {
		t.Fatal("behavior must traverse both boxes")
	}

	// A packet in a5 = ¬p1∧¬p2∧p3 (pattern 110*****) is dropped at b1...
	pkt5 := []byte{0b11000001}
	b = walk(n, m, b1, pkt5)
	if b.Delivered("") {
		t.Fatalf("a5 packet from b1 must not be delivered: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute || b.Drops[0].Box != b1 {
		t.Fatalf("expected no-route drop at b1: %v", b.Drops)
	}
	// ...but delivered to h2 if it enters at b2.
	b = walk(n, m, b2, pkt5)
	if !b.Delivered("h2") {
		t.Fatalf("a5 packet from b2 must reach h2: %v", b)
	}

	// A packet in a1 (p1, pattern 00******) goes straight to h1.
	pkt1 := []byte{0b00000001}
	b = walk(n, m, b1, pkt1)
	if !b.Delivered("h1") || b.Delivered("h2") {
		t.Fatalf("a1 packet must reach exactly h1: %v", b)
	}
}

// TestRemovedPredicateIsUnwired holds stage 2 to the removal contract:
// whoever removes a predicate unwires its ID in the same Update, and a
// walk — which probes no liveness — then drops at the unwired port.
func TestRemovedPredicateIsUnwired(t *testing.T) {
	n, m, preds := fig1Net(t)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b10000001} // a4: normally b1→b2→h2
	if b := walk(n, m, b1, pkt); !b.Delivered("h2") {
		t.Fatalf("a4 packet must reach h2 before the removal: %v", b)
	}
	m.Update(func(tx *aptree.Tx) { // remove p2 (b1→b2)
		tx.Remove(preds[1])
		w := tx.Data().(*Wiring).Next()
		w.SetFwd(b1, 1, NoPred)
		tx.SetData(w)
	})
	if classify(m, pkt).Member.Get(int(preds[1])) {
		t.Fatal("a removed predicate's membership bit must read clear")
	}
	b := walk(n, m, b1, pkt)
	if b.Delivered("") {
		t.Fatalf("packet must drop once its forwarding predicate is removed: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute {
		t.Fatalf("drops = %v", b.Drops)
	}
}

func TestIngressAndEgressACLs(t *testing.T) {
	n, m, _ := fig1Net(t)
	b1, b2 := n.BoxByName("b1"), n.BoxByName("b2")
	pkt := []byte{0b10000001}

	// Egress ACL on b1's b2-facing port that denies the packet's atom.
	aclDeny := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b11000000, 2, 8) })
	rewire(n, m, func(w *Wiring) { w.SetOutACL(b1, 1, aclDeny) })
	b := walk(n, m, b1, pkt)
	if b.Delivered("") {
		t.Fatalf("egress ACL must drop: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropOutACL {
		t.Fatalf("drops = %v", b.Drops)
	}

	// Permit ACL lets it through.
	aclPermit := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	rewire(n, m, func(w *Wiring) { w.SetOutACL(b1, 1, aclPermit) })
	b = walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("permitting egress ACL must pass: %v", b)
	}

	// Ingress ACL at b2 denies.
	rewire(n, m, func(w *Wiring) { w.SetInACL(b2, aclDeny) })
	b = walk(n, m, b1, pkt)
	if b.Delivered("") {
		t.Fatalf("ingress ACL must drop: %v", b)
	}
	found := false
	for _, d := range b.Drops {
		if d.Box == b2 && d.Reason == DropInACL {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected ingress-ACL drop at b2: %v", b.Drops)
	}

	// Clearing the ACL — remove the predicate, unwire the slot — passes
	// everything again.
	m.Update(func(tx *aptree.Tx) {
		tx.Remove(aclDeny)
		w := tx.Data().(*Wiring).Next()
		w.SetInACL(b2, NoPred)
		tx.SetData(w)
	})
	b = walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("cleared ACL must pass: %v", b)
	}
}

func TestLoopDetection(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	b1 := n.AddBox("b1", 1)
	b2 := n.AddBox("b2", 1)
	n.Link(b1, 0, b2, 0)
	rewire(n, m, func(w *Wiring) {
		w.SetFwd(b1, 0, p)
		w.SetFwd(b2, 0, p)
	})
	pkt := []byte{0b10000001}
	b := walk(n, m, b1, pkt)
	foundLoop := false
	for _, d := range b.Drops {
		if d.Reason == DropLoop {
			foundLoop = true
		}
	}
	if !foundLoop {
		t.Fatalf("expected loop detection: %v", b)
	}
}

func TestMulticast(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	q := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	n := New()
	b1 := n.AddBox("b1", 2)
	b2 := n.AddBox("b2", 2)
	b3 := n.AddBox("b3", 2)
	n.Link(b1, 0, b2, 1)
	n.Link(b1, 1, b3, 1)
	n.AttachHost(b2, 0, "h1")
	n.AttachHost(b3, 0, "h2")
	rewire(n, m, func(w *Wiring) {
		w.SetFwd(b1, 0, p)
		w.SetFwd(b1, 1, q)
		w.SetFwd(b2, 0, p)
		w.SetFwd(b3, 0, p)
	})
	pkt := []byte{0b10000001} // in both p and q
	b := walk(n, m, b1, pkt)
	if !b.Delivered("h1") || !b.Delivered("h2") {
		t.Fatalf("multicast packet must reach both hosts: %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Path must panic on multicast")
		}
	}()
	b.Path()
}

func TestDanglingPort(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	b1 := n.AddBox("b1", 1)
	rewire(n, m, func(w *Wiring) { w.SetFwd(b1, 0, p) }) // peer left at DestNone
	pkt := []byte{0b10000001}
	b := walk(n, m, b1, pkt)
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropDangling {
		t.Fatalf("drops = %v", b.Drops)
	}
}

// mbNet: b1 --- b2 --- h2, with a middlebox on b1 that rewrites the
// header's leading bits from 111 to 10 (so an otherwise-dropped packet is
// forwarded), mirroring the NAT example of Fig. 7.
func mbNet(t *testing.T, typ MBType) (*Network, *aptree.Manager) {
	t.Helper()
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p2 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	p3 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	match := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b11100000, 3, 8) })

	n := New()
	b1 := n.AddBox("b1", 1)
	b2 := n.AddBox("b2", 2)
	n.Link(b1, 0, b2, 1)
	n.AttachHost(b2, 0, "h2")
	rewire(n, m, func(w *Wiring) {
		w.SetFwd(b1, 0, p2)
		w.SetFwd(b2, 0, p3)
	})

	n.Boxes[b1].MB = &Middlebox{
		Name: "MB1",
		Entries: []MBEntry{{
			Match: match,
			Type:  typ,
			Rewrite: SetFieldRewrite(func(pkt []byte) {
				pkt[0] = 0b10000000 | pkt[0]&0x1F
			}),
		}},
	}
	return n, m
}

func TestMiddleboxRewriteDeterministic(t *testing.T) {
	n, m := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101} // matches MB entry; rewritten to 100xxxxx
	b := walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("rewritten packet must reach h2: %v", b)
	}
	if b.Rewrites != 1 {
		t.Fatalf("Rewrites = %d, want 1", b.Rewrites)
	}
	if b.Probabilistic {
		t.Fatal("deterministic rewrite must not mark probabilistic")
	}
	// The Type-1 cache must be primed and reused.
	mb := n.Boxes[b1].MB
	if mb.CacheLen() != 1 {
		t.Fatalf("cache length = %d, want 1", mb.CacheLen())
	}
	b = walk(n, m, b1, pkt)
	if !b.Delivered("h2") || mb.CacheLen() != 1 {
		t.Fatalf("second query must hit the cache: %v len=%d", b, mb.CacheLen())
	}
}

func TestMiddleboxCacheInvalidatedOnReconstruct(t *testing.T) {
	n, m := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101}
	walk(n, m, b1, pkt)
	mb := n.Boxes[b1].MB
	if mb.CacheLen() != 1 {
		t.Fatalf("cache not primed")
	}
	m.Reconstruct(false)
	b := walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("behavior wrong after reconstruct: %v", b)
	}
	if mb.CacheLen() != 1 {
		t.Fatalf("cache should be rebuilt with one fresh entry, len=%d", mb.CacheLen())
	}
}

func TestMiddleboxPayloadTypeDoesNotCache(t *testing.T) {
	n, m := mbNet(t, MBPayload)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101}
	b := walk(n, m, b1, pkt)
	if !b.Delivered("h2") {
		t.Fatalf("Type-2 rewrite must still deliver: %v", b)
	}
	if n.Boxes[b1].MB.CacheLen() != 0 {
		t.Fatal("Type-2 entries must not populate the Type-1 cache")
	}
}

func TestMiddleboxProbabilistic(t *testing.T) {
	n, m := mbNet(t, MBProbabilistic)
	b1 := n.BoxByName("b1")
	// Rewrite to two possible headers: one forwarded, one dropped.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte {
		fwd := append([]byte(nil), pkt...)
		fwd[0] = 0b10000001
		drop := append([]byte(nil), pkt...)
		drop[0] = 0b00000001
		return [][]byte{fwd, drop}
	}
	pkt := []byte{0b11100101}
	b := walk(n, m, b1, pkt)
	if !b.Probabilistic {
		t.Fatal("Type-3 must mark the behavior probabilistic")
	}
	if !b.Delivered("h2") {
		t.Fatalf("one alternative must deliver: %v", b)
	}
	if len(b.Drops) == 0 {
		t.Fatalf("the other alternative must drop: %v", b)
	}
	if b.Rewrites != 2 {
		t.Fatalf("Rewrites = %d, want 2", b.Rewrites)
	}
}

func TestMiddleboxDropAndPassthrough(t *testing.T) {
	n, m := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	// Entry that drops matching packets.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte { return [][]byte{} }
	pkt := []byte{0b11100101}
	b := walk(n, m, b1, pkt)
	if b.Delivered("") || len(b.Drops) != 1 || b.Drops[0].Reason != DropMiddlebox {
		t.Fatalf("middlebox drop expected: %v", b)
	}

	// A packet matching no entry passes through untouched (here: it is in
	// p2 so it is forwarded normally).
	pkt2 := []byte{0b10000001}
	b = walk(n, m, b1, pkt2)
	if !b.Delivered("h2") || b.Rewrites != 0 {
		t.Fatalf("non-matching packet must pass through unmodified: %v", b)
	}

	// A nil rewrite result is an explicit pass-through entry.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte { return nil }
	b = walk(n, m, b1, pkt)
	// 111xxxxx is in no forwarding predicate, so it drops with no route —
	// but not at the middlebox.
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute {
		t.Fatalf("pass-through entry must leave forwarding to the box: %v", b)
	}
}

func TestWalkerMatchesBehavior(t *testing.T) {
	n, m, _ := fig1Net(t)
	w := NewWalker(n)
	s := m.Snapshot()
	for _, pktByte := range []byte{0b00000001, 0b01000001, 0b10000001, 0b11000001, 0b11100001} {
		for ingress := 0; ingress < 2; ingress++ {
			pkt := []byte{pktByte}
			leaf, _ := s.Classify(pkt)
			want := n.Behavior(s, ingress, pkt, leaf)
			got := w.Behavior(s, ingress, pkt, leaf)
			if got.String() != want.String() {
				t.Fatalf("pkt %08b ingress %d: walker %q vs behavior %q",
					pktByte, ingress, got.String(), want.String())
			}
		}
	}
}

func TestWalkerReuseDoesNotLeakState(t *testing.T) {
	n, m, _ := fig1Net(t)
	w := NewWalker(n)
	s := m.Snapshot()
	// A delivering query followed by a dropping query must not inherit
	// the earlier edges/deliveries.
	pktGood := []byte{0b10000001}
	w.Behavior(s, 0, pktGood, classify(m, pktGood))
	pktBad := []byte{0b11100001}
	got := w.Behavior(s, 0, pktBad, classify(m, pktBad))
	if len(got.Edges) != 0 || len(got.Deliveries) != 0 {
		t.Fatalf("scratch leaked into next query: %v", got)
	}
	if len(got.Drops) != 1 {
		t.Fatalf("drops = %v", got.Drops)
	}
	// And back again.
	got = w.Behavior(s, 0, pktGood, classify(m, pktGood))
	if !got.Delivered("h2") {
		t.Fatalf("walker broken after reuse: %v", got)
	}
}

func TestBehaviorString(t *testing.T) {
	n, m, _ := fig1Net(t)
	pkt := []byte{0b10000001}
	b := walk(n, m, n.BoxByName("b1"), pkt)
	s := b.String()
	if s == "" || !b.Delivered("h2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBehaviorDeterministic(t *testing.T) {
	// Identical queries must produce identical behaviors (stage 2 is a
	// pure function of the data plane and the atom) — including edge
	// order, which downstream fingerprinting relies on.
	n, m, _ := fig1Net(t)
	s := m.Snapshot()
	for _, pktByte := range []byte{0b00000001, 0b10000001, 0b11000001} {
		pkt := []byte{pktByte}
		leaf, _ := s.Classify(pkt)
		first := n.Behavior(s, 0, pkt, leaf).String()
		for i := 0; i < 10; i++ {
			if got := n.Behavior(s, 0, pkt, leaf).String(); got != first {
				t.Fatalf("behavior not deterministic: %q vs %q", got, first)
			}
		}
	}
}

func TestBehaviorIndependentOfCounters(t *testing.T) {
	// Visit counters must not affect results.
	n, m, _ := fig1Net(t)
	pkt := []byte{0b10000001}
	a := walk(n, m, 0, pkt).String()
	for i := 0; i < 1000; i++ {
		m.Classify(pkt)
	}
	b := walk(n, m, 0, pkt).String()
	if a != b {
		t.Fatalf("behavior changed after counter churn: %q vs %q", a, b)
	}
}

func TestHopBudget(t *testing.T) {
	// A long chain with MaxHops smaller than its length must stop.
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	const chain = 10
	ids := make([]int, chain)
	for i := range ids {
		ids[i] = n.AddBox("", 1)
	}
	for i := 0; i+1 < chain; i++ {
		n.Boxes[ids[i]].Ports[0].Peer = Dest{Kind: DestBox, Box: ids[i+1], Port: 0}
	}
	rewire(n, m, func(w *Wiring) {
		for _, b := range ids {
			w.SetFwd(b, 0, p)
		}
	})
	n.MaxHops = 3
	pkt := []byte{0b10000001}
	b := walk(n, m, ids[0], pkt)
	budget := false
	for _, d := range b.Drops {
		if d.Reason == DropHopBudget {
			budget = true
		}
	}
	if !budget {
		t.Fatalf("hop budget must trigger: %v", b)
	}
}
