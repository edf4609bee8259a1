package aptree

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"apclassifier/internal/bdd"
)

// TestSnapshotPinnedEpochUnderChurn is the contract test for epoch
// pinning: a snapshot taken at any moment must keep answering exactly as
// it did at capture time, from any number of goroutines, while the live
// manager absorbs updates, explicit reconstructions and the
// auto-reconstruction policy. Run under -race this exercises the
// publish-under-lock / load-without-lock discipline end to end.
func TestSnapshotPinnedEpochUnderChurn(t *testing.T) {
	const (
		numVars = 32
		readers = 4
		rounds  = 300
		updates = 50
	)
	m := NewManager(numVars, MethodQuick)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		bits := uint64(rng.Uint32()) >> 16
		m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 1+rng.Intn(16), numVars)
		})
	}
	trace := make([][]byte, 64)
	for i := range trace {
		trace[i] = make([]byte, numVars/8)
		rng.Read(trace[i])
	}
	stop := m.AutoReconstruct(6, time.Millisecond, true)
	defer stop()

	var wg sync.WaitGroup
	done := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(29))
		var ids []int32
		for i := 0; i < updates; i++ {
			if len(ids) > 3 && wrng.Intn(3) == 0 {
				k := wrng.Intn(len(ids))
				m.RemovePredicate(ids[k])
				ids = append(ids[:k], ids[k+1:]...)
			} else {
				bits := uint64(wrng.Uint32()) >> 16
				id := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
					return d.FromPrefix(0, bits, 1+wrng.Intn(16), numVars)
				})
				ids = append(ids, id)
			}
			if i%7 == 0 {
				m.Reconstruct(i%14 == 0)
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Pin one epoch and classify the whole trace twice: a
				// pinned snapshot must be deterministic no matter what the
				// writer publishes meanwhile.
				s := m.Snapshot()
				v := s.Version()
				first := make([]*Node, len(trace))
				for j, pkt := range trace {
					leaf, sv := s.Classify(pkt)
					if leaf == nil || !leaf.IsLeaf() {
						t.Error("snapshot Classify returned a non-leaf")
						return
					}
					if sv != v {
						t.Errorf("snapshot version drifted: %d then %d", v, sv)
						return
					}
					first[j] = leaf
				}
				for j, pkt := range trace {
					if leaf, _ := s.Classify(pkt); leaf != first[j] {
						t.Error("pinned snapshot changed its answer between passes")
						return
					}
					// The uncounted probe walks the same epoch and must
					// agree from any goroutine, under every interleaving of
					// publishes.
					if leaf := s.ClassifyUncounted(pkt); leaf != first[j] {
						t.Error("ClassifyUncounted disagrees with the pinned epoch's Classify")
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	// Halt the reconstruction policy before validating: Validate runs BDD
	// operations on the live diagram and must not race a background swap.
	stop()

	live := m.LiveIDs()
	if err := m.Tree().Validate(live); err != nil {
		t.Fatal(err)
	}
	if err := SemanticallyEqual(m.Tree(), coldBuild(m), live); err != nil {
		t.Fatalf("tree after racing removals and swaps differs from a cold build: %v", err)
	}
}

// TestSnapshotIsLiveConsistentWithEpoch checks the liveness bitset riding
// in each snapshot (shared copy-on-write with the registry): a predicate
// removed after the snapshot was pinned must still read live — and keep
// its BDD and its routing — in the old epoch while reading dead in the
// next one.
func TestSnapshotIsLiveConsistentWithEpoch(t *testing.T) {
	m := NewManager(16, MethodQuick)
	rng := rand.New(rand.NewSource(31))
	var ids []int32
	for i := 0; i < 6; i++ {
		bits := uint64(rng.Uint32()) >> 20
		ids = append(ids, m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 1+rng.Intn(8), 16)
		}))
	}
	old := m.Snapshot()
	if !old.IsLive(ids[2]) {
		t.Fatal("freshly added predicate not live in pinned snapshot")
	}
	m.RemovePredicate(ids[2])
	if !old.IsLive(ids[2]) || old.Tree().Pred(ids[2]) == bdd.False {
		t.Fatal("removal leaked into the already-pinned epoch")
	}
	if now := m.Snapshot(); now.IsLive(ids[2]) || now.Tree().Pred(ids[2]) != bdd.False {
		t.Fatal("new epoch still reports a removed predicate live")
	}
	id := addRandomPredicate(m, rng)
	if old.IsLive(id) || !m.Snapshot().IsLive(id) {
		t.Fatal("a later add must be live in the new epoch only")
	}
}
