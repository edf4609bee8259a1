package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refBucket is the reference bucket rule: first bucket whose upper bound
// is >= v, or the +Inf bucket.
func refBucket(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// TestHistogramBucketPlacement is the satellite property test: every
// recorded sample lands in exactly the bucket the reference rule picks,
// including samples exactly on a bucket boundary.
func TestHistogramBucketPlacement(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	rng := rand.New(rand.NewSource(3))

	samples := make([]float64, 0, 500+2*len(bounds))
	for i := 0; i < 500; i++ {
		// Log-uniform over ~[1e-4, 1e2) so every bucket sees traffic.
		samples = append(samples, math.Pow(10, -4+6*rng.Float64()))
	}
	// Boundary values: exactly on each bound, and just above.
	for _, b := range bounds {
		samples = append(samples, b, math.Nextafter(b, math.Inf(1)))
	}

	h := newHistogram("h", bounds)
	want := make([]uint64, len(bounds)+1)
	var wantSum float64
	for _, v := range samples {
		h.Record(v)
		want[refBucket(bounds, v)]++
		wantSum += v
	}

	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", h.Count(), len(samples))
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9*wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// mutexHist is the mutex-guarded reference implementation the concurrent
// property test compares against.
type mutexHist struct {
	mu sync.Mutex
	//lint:guard mu
	buckets []uint64
	//lint:guard mu
	count uint64
	//lint:guard mu
	sum float64
}

func (m *mutexHist) record(bounds []float64, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buckets[refBucket(bounds, v)]++
	m.count++
	m.sum += v
}

// TestHistogramConcurrentRecordLosesNothing runs concurrent Record calls
// (exercised under -race in CI) and asserts the lock-free histogram
// agrees exactly with a mutex-guarded reference fed the same samples:
// no lost bucket increments, no lost count, and the CAS-loop sum matches
// up to floating-point reassociation.
func TestHistogramConcurrentRecordLosesNothing(t *testing.T) {
	bounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	h := newHistogram("h", bounds)
	ref := &mutexHist{buckets: make([]uint64, len(bounds)+1)}

	const workers = 8
	const per = 5000
	// Pre-generate each worker's samples so both implementations see the
	// identical multiset.
	samples := make([][]float64, workers)
	for w := range samples {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		samples[w] = make([]float64, per)
		for i := range samples[w] {
			samples[w][i] = math.Pow(10, -7+6*rng.Float64())
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(vals []float64) {
			defer wg.Done()
			for _, v := range vals {
				h.Record(v)
				ref.record(bounds, v)
			}
		}(samples[w])
	}
	wg.Wait()

	ref.mu.Lock()
	defer ref.mu.Unlock()
	if h.Count() != ref.count {
		t.Errorf("count = %d, want %d", h.Count(), ref.count)
	}
	got := h.snapshot()
	for i := range ref.buckets {
		if got[i] != ref.buckets[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], ref.buckets[i])
		}
	}
	if d := math.Abs(h.Sum() - ref.sum); d > 1e-6*ref.sum {
		t.Errorf("sum = %v, reference %v (diff %v)", h.Sum(), ref.sum, d)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := newHistogram("h", DefBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 3.7e-5
		for pb.Next() {
			h.Record(v)
		}
	})
}

func BenchmarkCounterInc(b *testing.B) {
	c := newCounter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
