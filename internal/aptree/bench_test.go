package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

func benchSetup(b *testing.B, numPreds int) (*bdd.DD, Input, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	d := bdd.New(32)
	preds := make([]bdd.Ref, numPreds)
	for i := range preds {
		preds[i] = d.Retain(d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32))
	}
	in := buildInput(d, preds, rng)
	trace := make([][]byte, 1024)
	for i := range trace {
		trace[i] = make([]byte, 4)
		rng.Read(trace[i])
	}
	return d, in, trace
}

func BenchmarkBuildOAPT(b *testing.B) {
	_, in, _ := benchSetup(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(in, MethodOAPT).Drop()
	}
}

func BenchmarkBuildQuick(b *testing.B) {
	_, in, _ := benchSetup(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(in, MethodQuick).Drop()
	}
}

func BenchmarkTreeClassify(b *testing.B) {
	_, in, trace := benchSetup(b, 64)
	tree := Build(in, MethodOAPT)
	b.ReportMetric(tree.AverageDepth(), "avg-depth")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(trace[i%len(trace)])
	}
}

func BenchmarkAddPredicate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d, in, _ := benchSetup(b, 48)
	tree := Build(in, MethodOAPT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := d.FromPrefix(0, uint64(rng.Uint32()), 8+rng.Intn(17), 32)
		tree = addPred(tree, int32(len(in.Preds)+i), d.Retain(p))
	}
}

func benchManager(b *testing.B) (*Manager, [][]byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 40; i++ {
		addRandomPredicate(m, rng)
	}
	trace := make([][]byte, 1024)
	for i := range trace {
		trace[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	return m, trace
}

// BenchmarkManagerClassify measures the single-threaded snapshot query
// path (one atomic load + tree search). The name kept its historical
// counterpart BenchmarkManagerClassifyUnderRLock until the read path
// went lock-free.
func BenchmarkManagerClassify(b *testing.B) {
	m, trace := benchManager(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Classify(trace[i%len(trace)])
	}
}

// BenchmarkParallelClassify drives Classify from GOMAXPROCS goroutines.
// With the lock-free snapshot path and striped visit counters this must
// scale with cores; under the old RLock-per-query design it collapsed on
// the lock's cache line.
func BenchmarkParallelClassify(b *testing.B) {
	m, trace := benchManager(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Classify(trace[i%len(trace)])
			i++
		}
	})
}

// BenchmarkParallelClassifyWithUpdates is the mixed workload: parallel
// queries while one background goroutine keeps adding predicates, each
// add republishing the snapshot.
func BenchmarkParallelClassifyWithUpdates(b *testing.B) {
	m, trace := benchManager(b)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addRandomPredicate(m, rng)
			if i%64 == 63 {
				m.Reconstruct(false)
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Classify(trace[i%len(trace)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
