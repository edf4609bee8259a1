package aptree

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"apclassifier/internal/bdd"
)

// TestManagerConcurrentClassifyUpdateReconstruct is the contract test for
// the manager's two-process design (§VI): classification must be safe to
// run from many goroutines concurrently with live predicate updates and
// with the auto-reconstruction policy swapping optimized trees in. Run
// under -race this exercises the lock discipline the locksafe and
// atomicfield analyzers check statically.
func TestManagerConcurrentClassifyUpdateReconstruct(t *testing.T) {
	const (
		numVars  = 32
		readers  = 4
		queries  = 2000
		updates  = 60
		pktBytes = numVars / 8
	)
	m := NewManager(numVars, MethodQuick)
	// Seed a few predicates so classification starts non-trivial.
	for i := 0; i < 8; i++ {
		bits := uint64(i) << (numVars - 8)
		m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 8, numVars)
		})
	}
	stop := m.AutoReconstruct(10, time.Millisecond, true)
	defer stop()

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Writer: a stream of adds and removals racing the readers and the
	// reconstruction goroutine, so removals land in every phase of a
	// rebuild — including its journal, whose merge replay runs at the swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(17))
		var ids []int32
		for i := 0; i < updates; i++ {
			if len(ids) > 4 && rng.Intn(3) == 0 {
				k := rng.Intn(len(ids))
				m.RemovePredicate(ids[k])
				ids = append(ids[:k], ids[k+1:]...)
			} else {
				length := 1 + rng.Intn(numVars/2)
				bits := uint64(rng.Uint32())
				id := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
					return d.FromPrefix(0, bits>>(32-numVars/2), length, numVars)
				})
				ids = append(ids, id)
			}
			if i%8 == 0 {
				m.Reconstruct(rng.Intn(2) == 0) // explicit rebuilds race the policy's
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pkt := make([]byte, pktBytes)
			for i := 0; i < queries; i++ {
				rng.Read(pkt)
				leaf, _ := m.Classify(pkt)
				if leaf == nil || !leaf.IsLeaf() {
					t.Error("Classify returned a non-leaf")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	stop()

	// The surviving tree must still be a coherent classifier, and the same
	// one a cold build over the surviving IDs yields.
	live := m.LiveIDs()
	if err := m.Tree().Validate(live); err != nil {
		t.Fatal(err)
	}
	if err := SemanticallyEqual(m.Tree(), coldBuild(m), live); err != nil {
		t.Fatalf("tree after racing removals and swaps differs from a cold build: %v", err)
	}
}

// coldBuild builds a fresh tree over m's live predicates in m's own DD.
// The manager must be quiescent.
func coldBuild(m *Manager) *Tree {
	d, preds, live := m.DD(), m.reg.Refs(), m.LiveIDs()
	return Build(Input{D: d, Preds: preds, Live: live, Atoms: liveAtoms(d, preds, live)}, MethodQuick)
}

// TestManagerConcurrentReaders checks the read-side accessors that back
// monitoring endpoints (Version, NumLive, UpdatesSinceSwap, Tree) against
// a concurrent reconstruction loop.
func TestManagerConcurrentReaders(t *testing.T) {
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 6; i++ {
		bits := uint64(i) << 12
		m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 4, 16)
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			m.Reconstruct(i%2 == 0)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkt := make([]byte, 2)
			for i := 0; i < 4000; i++ {
				_ = m.Version()
				_ = m.NumLive()
				_ = m.UpdatesSinceSwap()
				if tr := m.Tree(); tr.NumLeaves() < 1 {
					t.Error("tree lost its leaves")
					return
				}
				m.Classify(pkt)
			}
		}()
	}
	wg.Wait()
	if got := m.Version(); got < 20 {
		t.Fatalf("version = %d after 20 reconstructions", got)
	}
}
