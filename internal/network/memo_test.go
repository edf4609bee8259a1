package network

import (
	"testing"

	"apclassifier/internal/bdd"
)

func TestBehaviorCacheStoreLookup(t *testing.T) {
	n, m, _ := fig1Net(t)
	b1 := n.BoxByName("b1")
	s := m.Snapshot()
	bc := MemoOf(s)
	if MemoOf(s) != bc {
		t.Fatal("an epoch must keep the one memo it installed")
	}

	pkt := []byte{0b10000001}
	leaf, _ := s.Classify(pkt)
	if got := bc.Lookup(b1, leaf.AtomID); got != nil {
		t.Fatalf("empty cache returned %v", got)
	}
	b := n.Behavior(s, b1, pkt, leaf)
	if !b.Deterministic() {
		t.Fatal("plain forwarding walk must be deterministic")
	}
	bc.Store(b1, leaf.AtomID, b)
	if got := bc.Lookup(b1, leaf.AtomID); got != b {
		t.Fatalf("lookup = %v, want the stored behavior", got)
	}
	// Same atom from the other box is a distinct slot.
	if got := bc.Lookup(n.BoxByName("b2"), leaf.AtomID); got != nil {
		t.Fatalf("other-ingress lookup = %v, want nil", got)
	}
	if bc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bc.Len())
	}
	// Out-of-range atoms are a safe miss, not a panic.
	if got := bc.Lookup(b1, s.Tree().AtomIDBound()+5); got != nil {
		t.Fatal("out-of-range lookup must miss")
	}
	bc.Store(b1, -1, b)

	// The next epoch starts empty; the pinned one keeps its entry.
	rewire(n, m, func(*Wiring) {})
	if next := MemoOf(m.Snapshot()); next == bc || next.Len() != 0 || bc.Len() != 1 {
		t.Fatalf("next epoch's memo holds %d behaviors, pinned one %d", next.Len(), bc.Len())
	}
}

// TestMiddleboxDeterminismFlag checks that walks crossing Type-2/Type-3
// entries are flagged non-deterministic (and thus uncacheable), while
// Type-1 walks remain cacheable.
func TestMiddleboxDeterminismFlag(t *testing.T) {
	cases := []struct {
		name string
		typ  MBType
		det  bool
	}{
		{"type1-deterministic", MBDeterministic, true},
		{"type2-payload", MBPayload, false},
		{"type3-probabilistic", MBProbabilistic, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, m, _ := fig1Net(t)
			b1 := n.BoxByName("b1")
			match := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return bdd.True })
			rewire(n, m, func(w *Wiring) {
				w.SetMiddlebox(b1, &Middlebox{
					Name: "mb",
					Entries: []MBEntry{{
						Match: match,
						Type:  tc.typ,
						Rewrite: func(pkt []byte) [][]byte {
							out := append([]byte(nil), pkt...)
							return [][]byte{out}
						},
					}},
				})
			})
			pkt := []byte{0b10000001}
			b := walk(n, m, b1, pkt)
			if b.Deterministic() != tc.det {
				t.Fatalf("Deterministic() = %v, want %v", b.Deterministic(), tc.det)
			}
			if tc.typ == MBProbabilistic && !b.Probabilistic {
				t.Fatal("Type-3 walk must stay marked Probabilistic")
			}
			// A walk on a box without the middlebox stays deterministic.
			b2 := n.BoxByName("b2")
			if !walk(n, m, b2, pkt).Deterministic() {
				t.Fatal("middlebox-free walk must be deterministic")
			}
		})
	}
}

// TestWalkerResetsDeterminism checks the Walker scratch does not leak the
// non-determinism flag from one query into the next.
func TestWalkerResetsDeterminism(t *testing.T) {
	n, m, _ := fig1Net(t)
	b1, b2 := n.BoxByName("b1"), n.BoxByName("b2")
	match := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return bdd.True })
	rewire(n, m, func(w *Wiring) {
		w.SetMiddlebox(b1, &Middlebox{Entries: []MBEntry{{
			Match: match, Type: MBPayload,
			Rewrite: func(pkt []byte) [][]byte { return [][]byte{append([]byte(nil), pkt...)} },
		}}})
	})
	w := NewWalker(n)
	s := m.Snapshot()
	pkt := []byte{0b10000001}
	if w.Behavior(s, b1, pkt, classify(m, pkt)).Deterministic() {
		t.Fatal("walk through the Type-2 box must be non-deterministic")
	}
	if !w.Behavior(s, b2, pkt, classify(m, pkt)).Deterministic() {
		t.Fatal("next walk on the same Walker must reset the flag")
	}
}

func TestBehaviorClone(t *testing.T) {
	n, m, _ := fig1Net(t)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b10000001}
	b := walk(n, m, b1, pkt)
	c := b.Clone()
	if c.String() != b.String() || c.Ingress != b.Ingress {
		t.Fatalf("clone differs: %v vs %v", c, b)
	}
	if len(b.Edges) > 0 {
		b.Edges[0].Box = 99
		if c.Edges[0].Box == 99 {
			t.Fatal("clone aliases the original's edges")
		}
	}
}
