package apclassifier

import (
	"math/rand"
	"sync"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// TestBatchMatchesSingle is the batch differential satellite: on every
// netgen dataset, BehaviorBatch over random and boundary headers must be
// element-wise identical to the per-packet path — same atom, same
// behavior — at every batch size, including batches full of duplicate
// headers (the case the pipeline collapses).
func TestBatchMatchesSingle(t *testing.T) {
	for name, ds := range diffDatasets() {
		t.Run(name, func(t *testing.T) {
			c, err := New(ds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(45))
			fields := boundaryFields(ds, rng, 2)
			for i := 0; i < 120; i++ {
				fields = append(fields, ds.RandomFields(rng))
			}
			pkts := make([][]byte, 0, len(fields)*4/3)
			ingress := make([]int, 0, cap(pkts))
			for i, f := range fields {
				pkts = append(pkts, ds.PacketFromFields(f))
				ingress = append(ingress, rng.Intn(len(ds.Boxes)))
				if i%3 == 0 {
					// Duplicate (header, ingress) pairs exercise both the
					// stage-1 collapse and the stage-2 intra-batch dedupe.
					pkts = append(pkts, pkts[len(pkts)-1])
					ingress = append(ingress, ingress[len(ingress)-1])
				}
			}
			wantAtom := make([]int32, len(pkts))
			want := make([]string, len(pkts))
			for i := range pkts {
				leaf := c.Classify(pkts[i])
				wantAtom[i] = leaf.AtomID
				want[i] = c.Behavior(ingress[i], pkts[i]).String()
			}

			buf := c.NewBatchBuffer()
			for _, size := range []int{1, 7, 64, len(pkts)} {
				for lo := 0; lo < len(pkts); lo += size {
					hi := min(lo+size, len(pkts))
					s := c.Snapshot()
					leaves := s.ClassifyBatch(buf, pkts[lo:hi])
					for i, leaf := range leaves {
						if leaf.AtomID != wantAtom[lo+i] {
							t.Fatalf("size %d, packet %d: batch atom %d, single atom %d",
								size, lo+i, leaf.AtomID, wantAtom[lo+i])
						}
					}
					got := s.BehaviorBatchFrom(buf, ingress[lo:hi], pkts[lo:hi], leaves)
					for i, b := range got {
						if b.String() != want[lo+i] {
							t.Fatalf("size %d, packet %d:\n batch %q\nsingle %q",
								size, lo+i, b.String(), want[lo+i])
						}
					}
				}
			}
		})
	}
}

// TestBatchBypassesCacheForPayloadMiddlebox proves the §V-E gate: two
// same-atom packets crossing a Type-2 (payload-dependent) middlebox get
// genuinely different behaviors, and the batch pipeline must not share
// one cached walk between them — neither through the epoch cache nor
// through its own intra-batch dedupe.
func TestBatchBypassesCacheForPayloadMiddlebox(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 46, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Internet2 prefixes are /10–/24, so two destinations differing only
	// in the low bit always share an atom.
	base := ds.Boxes[0].Fwd.Rules[0].Prefix.Value
	even := ds.PacketFromFields(ruleFieldsDst(base | 2))
	odd := ds.PacketFromFields(ruleFieldsDst(base | 3))
	if a, b := c.Classify(even), c.Classify(odd); a.AtomID != b.AtomID {
		t.Fatalf("probe construction broken: atoms %d vs %d", a.AtomID, b.AtomID)
	}

	match := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref { return bdd.True })
	layout := ds.Layout
	c.Net.Boxes[0].MB = &network.Middlebox{
		Name: "payload-mb",
		Entries: []network.MBEntry{{
			Match: match,
			Type:  network.MBPayload,
			Rewrite: func(pkt []byte) [][]byte {
				if layout.Get(pkt, "dstIP")&1 == 0 {
					return [][]byte{} // "payload" says drop
				}
				return nil // pass through
			},
		}},
	}
	defer func() { c.Net.Boxes[0].MB = nil }()

	wantEven := c.Behavior(0, even).String()
	wantOdd := c.Behavior(0, odd).String()
	if wantEven == wantOdd {
		t.Fatal("probes must behave differently through the Type-2 middlebox")
	}
	if c.Behavior(0, even).Deterministic() {
		t.Fatal("Type-2 walk must be non-deterministic")
	}

	// Interleave the two classes; wrong memoization on the shared
	// (ingress, atom) key would answer one class with the other's walk.
	pkts := [][]byte{even, odd, even, odd, even, odd}
	ingress := []int{0, 0, 0, 0, 0, 0}
	buf := c.NewBatchBuffer()
	for round := 0; round < 2; round++ { // round 2 re-tests against a warm cache
		got := c.Snapshot().BehaviorBatch(buf, ingress, pkts)
		for i, b := range got {
			want := wantEven
			if i%2 == 1 {
				want = wantOdd
			}
			if b.String() != want {
				t.Fatalf("round %d, packet %d:\n got %q\nwant %q", round, i, b.String(), want)
			}
		}
	}
}

func ruleFieldsDst(dst uint32) rule.Fields {
	return rule.Fields{Dst: dst}
}

// TestBatchUnderManagerChurn runs whole batches concurrently with
// predicate churn and reconstruction swaps: a batch pins one epoch, so
// every element must keep returning the pre-churn behavior even when the
// published snapshot (and with it the behavior cache) is swapped mid-batch.
func TestBatchUnderManagerChurn(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 47, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numVars := ds.Layout.Bits()

	rng := rand.New(rand.NewSource(48))
	const n = 48
	pkts := make([][]byte, n)
	ingress := make([]int, n)
	want := make([]string, n)
	for i := range pkts {
		f := ruleFieldsDst(0x0A000000 | uint32(rng.Intn(1<<16)))
		pkts[i] = ds.PacketFromFields(f)
		ingress[i] = rng.Intn(len(ds.Boxes))
		want[i] = c.Behavior(ingress[i], pkts[i]).String()
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(49))
		for i := 0; i < 30; i++ {
			bits := uint64(wrng.Uint32())
			c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref {
				return d.FromPrefix(0, bits>>8, 8+wrng.Intn(17), numVars)
			})
			if i%5 == 0 {
				c.Reconstruct(false)
			}
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			buf := c.NewBatchBuffer()
			for i := 0; i < 200; i++ {
				got := c.Snapshot().BehaviorBatch(buf, ingress, pkts)
				for k, b := range got {
					if b.String() != want[k] {
						t.Errorf("batch element %d drifted under churn:\n got %q\nwant %q",
							k, b.String(), want[k])
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(int64(60 + r))
	}
	wg.Wait()
}
