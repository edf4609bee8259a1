package verify

import (
	"math/rand"
	"sync"
	"testing"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// TestAnalyzerStableUnderChurn pins an Analyzer, then mutates the
// classifier's rule tables concurrently (semantics-changing deltas: child
// prefixes re-homed to different ports) while re-running the analyzer's
// queries from several goroutines. Every answer must be bit-identical to
// the pre-churn baseline: the analyzer is pinned to one epoch and never
// reads live state. A fresh Analyzer pinned after the churn must see the
// new semantics.
func TestAnalyzerStableUnderChurn(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 62, RuleScale: 0.01})
	c := compile(t, ds)
	a := New(c)

	type baseline struct {
		loops   int
		reach   map[string]predicate.AtomSet
		bh      predicate.AtomSet
		matrix0 []int
	}
	snapshotResults := func() baseline {
		b := baseline{loops: len(a.Loops()), reach: map[string]predicate.AtomSet{}}
		for _, h := range ds.Hosts {
			b.reach[h.Name] = a.ReachSet(0, h.Name).Atoms()
		}
		b.bh = a.Blackholes(0).Atoms()
		b.matrix0 = a.ReachabilityMatrix()[0]
		return b
	}
	base := snapshotResults()

	// Churn: add child prefixes of installed rules pointing at *different*
	// ports (real semantic changes), then remove them. Every delta bumps
	// the epoch through Manager.Update.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(62))
		var installed []struct {
			box int
			p   rule.Prefix
		}
		for i := 0; i < 120; i++ {
			box := rng.Intn(len(ds.Boxes))
			spec := &ds.Boxes[box]
			parent := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
			if parent.Prefix.Length >= 31 {
				continue
			}
			length := parent.Prefix.Length + 1 + rng.Intn(31-parent.Prefix.Length)
			child := rule.P(parent.Prefix.Value|rng.Uint32()&^(^uint32(0)<<uint(32-parent.Prefix.Length)), length)
			port := (parent.Port + 1) % ds.Boxes[box].NumPorts
			apply(t, c, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: rule.FwdRule{Prefix: child, Port: port}})
			installed = append(installed, struct {
				box int
				p   rule.Prefix
			}{box, child})
		}
		for _, in := range installed {
			apply(t, c, apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: in.box, Prefix: in.p})
		}
		close(stop)
	}()

	// Concurrent readers re-run the pinned analyzer until churn finishes.
	check := func(got baseline) {
		if got.loops != base.loops {
			t.Errorf("loops changed under churn: %d -> %d", base.loops, got.loops)
		}
		for h, want := range base.reach {
			if !got.reach[h].Equal(want) {
				t.Errorf("reach(%s) changed under churn: %v -> %v", h, want, got.reach[h])
			}
		}
		if !got.bh.Equal(base.bh) {
			t.Errorf("blackholes changed under churn")
		}
		for i, v := range base.matrix0 {
			if got.matrix0[i] != v {
				t.Errorf("matrix row changed under churn at %d: %d -> %d", i, v, got.matrix0[i])
			}
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check(snapshotResults())
				}
			}
		}()
	}
	wg.Wait()
	check(snapshotResults()) // once more after all deltas landed

	// A fresh analyzer pins the post-churn snapshot (same reconstruction
	// epoch — incremental deltas republish without bumping the version —
	// but a different tree); add/remove cancelled out, so its results must
	// match the baseline too, proving New is safe after heavy delta
	// traffic. Atom IDs are not comparable across pins, so compare shape.
	a2 := New(c)
	for _, h := range ds.Hosts {
		want := base.reach[h.Name]
		got := a2.ReachSet(0, h.Name)
		if (got.NumAtoms() == 0) != (want.Len() == 0) {
			t.Fatalf("post-churn reach(%s) emptiness differs", h.Name)
		}
	}
	if len(a2.Loops()) != base.loops {
		t.Fatal("post-churn loop count differs")
	}
}

// TestFreshAnalyzersDuringChurn hammers New(c) while deltas are applied:
// every pin must observe an internally consistent epoch (reach ∪
// blackholes ∪ loops covers the whole atom universe from any ingress).
func TestFreshAnalyzersDuringChurn(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 63, RuleScale: 0.01})
	c := compile(t, ds)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(63))
		for i := 0; i < 150; i++ {
			box := rng.Intn(len(ds.Boxes))
			spec := &ds.Boxes[box]
			parent := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
			if parent.Prefix.Length >= 31 {
				continue
			}
			length := parent.Prefix.Length + 1 + rng.Intn(31-parent.Prefix.Length)
			child := rule.P(parent.Prefix.Value|rng.Uint32()&^(^uint32(0)<<uint(32-parent.Prefix.Length)), length)
			apply(t, c, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box,
				Rule: rule.FwdRule{Prefix: child, Port: (parent.Port + 1) % ds.Boxes[box].NumPorts}})
		}
		close(stop)
	}()

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := New(c)
				union := a.Blackholes(0).Atoms().Union(a.LoopSet(0).Atoms())
				for _, h := range ds.Hosts {
					union = union.Union(a.ReachSet(0, h.Name).Atoms())
				}
				if union.Len() != a.NumAtoms() {
					t.Errorf("epoch %d inconsistent: %d/%d atoms accounted for",
						a.Epoch(), union.Len(), a.NumAtoms())
					return
				}
			}
		}()
	}
	wg.Wait()
}
