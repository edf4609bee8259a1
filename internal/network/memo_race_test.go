package network_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// TestMemoUnderDeltas runs Behavior, BehaviorWith and pinned BehaviorBatch
// queries through a Type-1 NAT while a writer applies rule-delta batches
// that drop and restore the NAT's translated destinations and swap the
// NAT between them. Every answer must equal an uncached walk of an epoch
// published while the query ran: a memo that outlived its epoch — a
// behavior or a flow-table leaf learned before a delta — would answer
// from a data plane no longer published. Run under -race it is also the
// witness that the memo needs no lock.
func TestMemoUnderDeltas(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 9, RuleScale: 0.02})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	routed := func() uint32 {
		for {
			f := ds.RandomFields(rng)
			if res := ds.Simulate(0, f); len(res.Delivered) == 1 {
				return f.Dst
			}
		}
	}
	targets := []uint32{routed(), routed()}
	const vip = uint32(0xC6120000)
	match := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.FromPrefix(ds.Layout.MustField("dstIP").Offset, uint64(vip), 16, 32)
	})
	nat := c.Net.BoxByName("chicago")
	natTo := func(dst uint32) apclassifier.RuleDelta {
		return apclassifier.RuleDelta{Op: apclassifier.OpSetMiddlebox, Box: nat, MB: &network.Middlebox{
			Name: fmt.Sprintf("nat-%08x", dst),
			Entries: []network.MBEntry{{Match: match, Type: network.MBDeterministic,
				Rewrite: network.SetFieldRewrite(func(pkt []byte) { ds.Layout.Set(pkt, "dstIP", uint64(dst)) })}},
		}}
	}

	// Queries: virtual-prefix packets the NAT translates, and the
	// translated destinations themselves, from the NAT box and elsewhere.
	var pkts [][]byte
	var ingress []int
	for i := 0; i < 24; i++ {
		dst := vip | uint32(rng.Intn(1<<16))
		if i%3 == 0 {
			dst = targets[i%2]
		}
		pkts = append(pkts, ds.PacketFromFields(rule.Fields{Dst: dst}))
		ingress = append(ingress, []int{nat, rng.Intn(len(ds.Boxes))}[i%2])
	}

	// history lists every published epoch in order; the writer appends
	// each one after publishing it.
	var mu sync.Mutex
	history := []*aptree.Snapshot{c.Manager.Snapshot()}
	indexOf := func(s *aptree.Snapshot) int {
		for {
			mu.Lock()
			for i := len(history) - 1; i >= 0; i-- {
				if history[i] == s {
					mu.Unlock()
					return i
				}
			}
			mu.Unlock()
			runtime.Gosched() // published, not yet recorded
		}
	}
	apply := func(deltas ...apclassifier.RuleDelta) {
		if err := c.ApplyRuleDeltas(deltas); err != nil {
			t.Error(err)
		}
		mu.Lock()
		history = append(history, c.Manager.Snapshot())
		mu.Unlock()
	}
	apply(natTo(targets[0]))

	// check reports whether got is the uncached answer of some epoch
	// between the ones loaded before and after the query.
	check := func(how string, before, after *aptree.Snapshot, i int, got *network.Behavior) {
		lo, hi := indexOf(before), indexOf(after)
		mu.Lock()
		window := append([]*aptree.Snapshot(nil), history[lo:hi+1]...)
		mu.Unlock()
		var wants []string
		for _, s := range window {
			leaf, _ := s.Classify(pkts[i])
			want := network.UncachedBehavior(c.Net, s, ingress[i], pkts[i], leaf)
			if got.String() == want.String() && got.Probabilistic == want.Probabilistic {
				return
			}
			wants = append(wants, want.String())
		}
		t.Errorf("%s query %d answers %q; uncached walks of its epochs: %q", how, i, got, wants)
	}

	done := make(chan struct{})
	var queries atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(11))
		droppedAt := map[uint32]int{} // translated destination → box + 1
		for step := 0; step < 40; step++ {
			// Let every reader answer from the current epoch first.
			for seen := queries.Load(); queries.Load() < seen+3*int64(len(pkts)); {
				runtime.Gosched()
			}
			dst := targets[wrng.Intn(2)]
			p := rule.P(dst, 32)
			switch box := droppedAt[dst] - 1; {
			case wrng.Intn(3) == 0:
				apply(natTo(dst))
			case box >= 0:
				apply(apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: p})
				delete(droppedAt, dst)
			default:
				box = []int{nat, wrng.Intn(len(ds.Boxes))}[wrng.Intn(2)]
				apply(apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: rule.FwdRule{Prefix: p, Port: rule.Drop}})
				droppedAt[dst] = box + 1
			}
		}
	}()

	readers := []func(i int){
		func(i int) {
			before := c.Manager.Snapshot()
			b := c.Behavior(ingress[i], pkts[i])
			check("Behavior", before, c.Manager.Snapshot(), i, b)
		},
		func() func(int) {
			w := c.NewWalker()
			return func(i int) {
				before := c.Manager.Snapshot()
				b := c.BehaviorWith(w, ingress[i], pkts[i])
				check("BehaviorWith", before, c.Manager.Snapshot(), i, b)
			}
		}(),
		func() func(int) {
			buf := c.NewBatchBuffer()
			return func(int) {
				before := c.Manager.Snapshot()
				got := c.Snapshot().BehaviorBatch(buf, ingress, pkts)
				after := c.Manager.Snapshot()
				for i, b := range got {
					check("BehaviorBatch", before, after, i, b)
				}
			}
		}(),
	}
	for _, query := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				query(i % len(pkts))
				queries.Add(1)
			}
		}()
	}
	wg.Wait()
}
