package aptree

import (
	"math/rand"
	"strconv"
	"testing"

	"apclassifier/internal/bdd"
)

// batchTree builds a moderately deep tree plus a 4-byte random trace for
// the batch tests, without going through the *testing.B bench helpers.
func batchTree(numPreds int, seed int64) (*Tree, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	d := bdd.New(32)
	preds := make([]bdd.Ref, numPreds)
	for i := range preds {
		preds[i] = d.Retain(d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32))
	}
	return Build(buildInput(d, preds, rng), MethodOAPT), rng
}

// classifyTreeBatch runs the batched descent over the live pointer tree,
// adding per-atom visit totals — the shape the single-packet
// Tree.Classify takes, so the two can be compared directly.
func classifyTreeBatch(t *Tree, sc *BatchScratch, pkts [][]byte, out []*Node) {
	classifyBatch(t.D, t.preds, t.root, sc, pkts, out, t.visits.view().addN)
}

// TestClassifyBatchMatchesClassify checks that the batched descent agrees
// leaf-for-leaf with the per-packet search, for batches with and without
// duplicate headers, and that the per-atom visit totals come out identical
// to classifying the same packets one by one.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	tree, rng := batchTree(48, 7)

	for _, n := range []int{0, 1, 2, 7, 64, 301} {
		pkts := make([][]byte, n)
		for i := range pkts {
			if i > 0 && rng.Intn(3) == 0 {
				pkts[i] = pkts[rng.Intn(i)] // force duplicate headers
			} else {
				pkts[i] = make([]byte, 4)
				rng.Read(pkts[i])
			}
		}

		// Single-packet leaves, and the visit deltas the single-packet
		// pass itself leaves on the counters: the batch must add the same.
		counts := func() map[int32]uint64 {
			c := map[int32]uint64{}
			tree.Leaves(func(l *Node) { c[l.AtomID] = tree.Visits(l) })
			return c
		}
		before := counts()
		want := make([]*Node, n)
		for i, p := range pkts {
			want[i] = tree.Classify(p)
		}
		wantVisits, sum := map[int32]uint64{}, uint64(0)
		for atom, c := range counts() {
			wantVisits[atom] = c - before[atom]
			sum += wantVisits[atom]
		}
		if sum != uint64(n) {
			t.Fatalf("n=%d: single-packet searches counted %d visits", n, sum)
		}
		before = counts()

		out := make([]*Node, n)
		sc := &BatchScratch{}
		classifyTreeBatch(tree, sc, pkts, out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("n=%d packet %d: batch leaf atom %d, single leaf atom %d",
					n, i, out[i].AtomID, want[i].AtomID)
			}
		}
		tree.Leaves(func(l *Node) {
			delta := tree.Visits(l) - before[l.AtomID]
			if delta != wantVisits[l.AtomID] {
				t.Fatalf("n=%d atom %d: batch visit delta %d, single-path total %d",
					n, l.AtomID, delta, wantVisits[l.AtomID])
			}
		})

		// Reusing the same scratch for a second batch must still agree.
		classifyTreeBatch(tree, sc, pkts, out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("n=%d packet %d drifted on scratch reuse", n, i)
			}
		}
	}
}

// TestClassifyBatchSnapshot checks the epoch-pinned batch entry point
// against the snapshot's own per-packet search, including on a snapshot
// retained across a reconstruction swap.
func TestClassifyBatchSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 40; i++ {
		addRandomPredicate(m, rng)
	}
	pkts := make([][]byte, 128)
	for i := range pkts {
		pkts[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	out := make([]*Node, len(pkts))

	for round := 0; round < 2; round++ {
		s := m.Snapshot()
		s.ClassifyBatchWith(&BatchScratch{}, pkts, out)
		for i, p := range pkts {
			want, _ := s.Classify(p)
			if out[i] != want {
				t.Fatalf("round %d packet %d: batch atom %d, single atom %d",
					round, i, out[i].AtomID, want.AtomID)
			}
		}
		// An old snapshot keeps batch-classifying identically after the
		// live tree moves on.
		addRandomPredicate(m, rng)
		m.Reconstruct(false)
		s.ClassifyBatchWith(&BatchScratch{}, pkts, out)
		for i, p := range pkts {
			want, _ := s.Classify(p)
			if out[i] != want {
				t.Fatalf("round %d packet %d: retained-epoch batch drifted", round, i)
			}
		}
	}
}

func TestClassifyBatchShortOutputPanics(t *testing.T) {
	tree, rng := batchTree(16, 9)
	pkts := make([][]byte, 4)
	for i := range pkts {
		pkts[i] = make([]byte, 4)
		rng.Read(pkts[i])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short output slice did not panic")
		}
	}()
	classifyTreeBatch(tree, &BatchScratch{}, pkts, make([]*Node, 2))
}

// BenchmarkBatchClassify measures the batched stage-1 search at several
// batch sizes against the per-packet loop, on a uniform trace (no
// duplicate collapse: the group-by-branch descent alone) — part of
// bench-smoke.
func BenchmarkBatchClassify(b *testing.B) {
	m, trace := benchManager(b)
	s := m.Snapshot()
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Classify(trace[i%len(trace)])
		}
	})
	for _, size := range []int{16, 64, 256} {
		b.Run("batch"+strconv.Itoa(size), func(b *testing.B) {
			sc := &BatchScratch{}
			out := make([]*Node, size)
			for i := 0; i < b.N; i += size {
				at := i % len(trace)
				end := at + size
				if end > len(trace) {
					end = len(trace)
				}
				s.ClassifyBatchWith(sc, trace[at:end], out)
			}
		})
	}
}
