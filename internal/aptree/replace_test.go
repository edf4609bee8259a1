package aptree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// partition maps each leaf's atom to its membership signature over the
// slots: sig[k] is whether the leaf's atom lies inside slot k's predicate,
// read through ids[k] (-1 reads false). Two trees over one DD hold the
// same partition iff their maps are equal, whatever IDs they use.
func partition(t *Tree, ids []int32) map[bdd.Ref]string {
	out := make(map[bdd.Ref]string)
	t.Leaves(func(n *Node) {
		sig := make([]byte, len(ids))
		for k, id := range ids {
			sig[k] = '0'
			if id >= 0 && n.Member.Get(int(id)) {
				sig[k] = '1'
			}
		}
		out[n.BDD] = string(sig)
	})
	return out
}

func samePartition(a, b map[bdd.Ref]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d leaves vs %d", len(a), len(b))
	}
	for ref, sig := range a {
		if other, ok := b[ref]; !ok {
			return fmt.Errorf("atom %d has no twin", ref)
		} else if other != sig {
			return fmt.Errorf("atom %d: signature %s vs %s", ref, sig, other)
		}
	}
	return nil
}

// TestReplaceEqualsRemoveAdd is the property behind Tx.Replace: on random
// rule programs — forwarding adds (to ports and to Drop) and removes on two
// tables, port-ACL sets and clears — replacing each changed predicate in
// place over its cone region yields exactly the leaf partition, with the
// same membership signatures, as removing the old predicate and adding the
// new one under a fresh ID, each over its exact region, and as a cold
// build over the atoms of the current slots. The cold build is the
// independent oracle: removing and adding run the same ReplacePredicate.
// The replaced slots keep their IDs for the whole program, so ports that
// stop forwarding and start again, and ACLs that go to deny-all and back,
// drive the old == False and new == False edges.
func TestReplaceEqualsRemoveAdd(t *testing.T) {
	const (
		boxes    = 2
		numPorts = 3
		slots    = boxes*numPorts + boxes // port predicates, then one ACL per box
		steps    = 150
	)
	layout := header.IPv4Dst
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := bdd.New(layout.Bits())
		empty := Build(Input{D: d, Atoms: predicate.Compute(d, nil)}, MethodOrder)
		a, b := empty, empty
		idA := make([]int32, slots) // kept for the whole program
		idB := make([]int32, slots) // -1 while the predicate is empty
		refs := make([]bdd.Ref, slots)
		for k := range idA {
			idA[k], idB[k], refs[k] = int32(k), -1, bdd.False
		}
		nextB := int32(0)
		set := func(k int, next, region bdd.Ref) {
			if next == refs[k] {
				return
			}
			a = a.ReplacePredicate(idA[k], next, region)
			if idB[k] >= 0 {
				b = removePred(b, idB[k])
				idB[k] = -1
			}
			if next != bdd.False {
				idB[k] = nextB
				nextB++
				b = addPred(b, idB[k], next)
			}
			refs[k] = next
		}
		tables := make([]rule.FwdTable, boxes)
		prefix := func() rule.Prefix {
			// A small universe of short prefixes keeps cones overlapping.
			return rule.P(rng.Uint32()&0xF0000000, rng.Intn(5))
		}
		for step := 0; step < steps; step++ {
			box := rng.Intn(boxes)
			tbl := &tables[box]
			var cones []rule.Cone
			switch op := rng.Intn(5); {
			case op <= 1 || len(tbl.Rules) == 0:
				port := rng.Intn(numPorts+1) - 1 // -1 is Drop
				if port < 0 {
					port = rule.Drop
				}
				cones = append(cones, tbl.AddWithCone(rule.FwdRule{Prefix: prefix(), Port: port}))
			case op == 2:
				cone, ok := tbl.RemoveWithCone(tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix)
				if !ok {
					t.Fatal("removing an installed prefix found nothing")
				}
				cones = append(cones, cone)
			default:
				k := boxes*numPorts + box
				next := bdd.False
				if rng.Intn(3) > 0 {
					m := rule.MatchAll()
					m.Dst = prefix()
					acl := &rule.ACL{Rules: []rule.ACLRule{{Match: m, Action: rule.Deny}}, Default: rule.Permit}
					if rng.Intn(2) == 0 {
						acl.Rules[0].Action, acl.Default = rule.Permit, rule.Deny
					}
					next = predicate.ACLPredicate(d, layout, acl)
				}
				set(k, next, d.Xor(refs[k], next))
			}
			if cones != nil {
				region := predicate.ConeRegion(d, layout, "dstIP", cones)
				pd := predicate.DeltaPortPredicates(d, layout, "dstIP", tbl, cones, numPorts,
					func(port int) bdd.Ref { return refs[box*numPorts+port] })
				for _, dp := range pd {
					set(box*numPorts+dp.Port, dp.New, region)
				}
			}
			got := partition(a, idA)
			if err := samePartition(got, partition(b, idB)); err != nil {
				t.Fatalf("seed %d step %d: Replace and Remove+Add disagree: %v", seed, step, err)
			}
			var live []int32
			for k, ref := range refs {
				if ref != bdd.False {
					live = append(live, int32(k))
				}
			}
			cold := Build(Input{D: d, Preds: refs, Live: live, Atoms: liveAtoms(d, refs, live)}, MethodOrder)
			if err := samePartition(got, partition(cold, idA)); err != nil {
				t.Fatalf("seed %d step %d: Replace and a cold build disagree: %v", seed, step, err)
			}
		}
		if err := a.Validate(idA); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReplaceRacesReconstruct runs batches of Tx.Replace against
// reconstructions on another goroutine, so replaces land in every phase of
// a rebuild, including its journal. The tree left behind must be the one a
// cold build over the final predicates yields. Run it under -race.
func TestReplaceRacesReconstruct(t *testing.T) {
	const (
		numVars = 16
		slots   = 8
		batches = 80
	)
	m := NewManager(numVars, MethodQuick)
	prefixes := make([][]rule.Prefix, slots) // slot k's predicate is their union
	rng := rand.New(rand.NewSource(5))
	randPrefix := func() rule.Prefix {
		return rule.P(rng.Uint32()&0xFFFF0000, 1+rng.Intn(numVars-1))
	}
	prefixBDD := func(d *bdd.DD, p rule.Prefix) bdd.Ref {
		return d.FromPrefix(0, uint64(p.Value>>16), p.Length, numVars)
	}
	union := func(d *bdd.DD, ps []rule.Prefix) bdd.Ref {
		r := bdd.False
		for _, p := range ps {
			r = d.Or(r, prefixBDD(d, p))
		}
		return r
	}
	ids := make([]int32, slots)
	m.Update(func(tx *Tx) {
		for k := range ids {
			prefixes[k] = []rule.Prefix{randPrefix()}
			ids[k] = tx.Add(union(tx.DD(), prefixes[k]))
		}
	})

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				m.Reconstruct(i%2 == 0)
			}
		}
	}()
	for i := 0; i < batches; i++ {
		m.Update(func(tx *Tx) {
			d := tx.DD()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k := rng.Intn(slots)
				changed := randPrefix()
				if j := rng.Intn(len(prefixes[k]) + 1); j < len(prefixes[k]) && len(prefixes[k]) > 1 {
					changed = prefixes[k][j]
					prefixes[k] = append(prefixes[k][:j], prefixes[k][j+1:]...)
				} else {
					prefixes[k] = append(prefixes[k], changed)
				}
				// The changed prefix covers old ⊕ new; it is usually more.
				tx.Replace(ids[k], union(d, prefixes[k]), prefixBDD(d, changed))
			}
		})
	}
	close(done)
	wg.Wait()

	live := m.LiveIDs()
	if len(live) != slots {
		t.Fatalf("%d live predicates, want %d: Replace must keep IDs", len(live), slots)
	}
	tree, cold := m.Tree(), coldBuild(m)
	if err := tree.Validate(live); err != nil {
		t.Fatal(err)
	}
	if err := SemanticallyEqual(tree, cold, live); err != nil {
		t.Fatalf("tree after racing replaces and swaps differs from a cold build: %v", err)
	}
	if tree.NumLeaves() != cold.NumLeaves() {
		t.Fatalf("%d leaves, cold build has %d: the partition is not the coarsest", tree.NumLeaves(), cold.NumLeaves())
	}
}
