package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefBuckets are latency bucket upper bounds in seconds, log-spaced from
// 100 ns to 2.5 s. The range brackets everything the classifier times:
// a stage-1 search is tens of nanoseconds to microseconds, a stage-2
// walk microseconds, an update milliseconds, and a full-scale
// reconstruction can reach seconds.
var DefBuckets = []float64{
	1e-7, 2.5e-7, 5e-7,
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5,
}

// Histogram is a fixed-bucket histogram with lock-free, zero-allocation
// recording: Record performs a bounds search plus three atomic updates
// (bucket, count, sum) and never allocates. Bucket counts are exact
// under any concurrency; the sum is a CAS-loop float add, also exact
// (every addition lands once) though additions may be ordered
// arbitrarily.
type Histogram struct {
	help string
	// bounds are upper bounds of the finite buckets, strictly
	// increasing. buckets has len(bounds)+1 entries; the last is +Inf.
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v <= %v",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketIndex returns the index of the first bucket whose upper bound is
// >= v (the +Inf bucket for values above every bound). Binary search,
// allocation-free.
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Record adds one observation.
func (h *Histogram) Record(v float64) {
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot reads the bucket counts once. Concurrent Records may land
// between bucket loads, so the snapshot is only approximately a point in
// time; each individual count is exact.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) metricHelp() string { return h.help }

func (h *Histogram) sampleLines(name string, add func(string)) {
	counts := h.snapshot()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		add(name + `_bucket{le="` + formatFloat(b) + `"} ` + formatUint(cum))
	}
	cum += counts[len(counts)-1]
	add(name + `_bucket{le="+Inf"} ` + formatUint(cum))
	add(name + "_sum " + formatFloat(h.Sum()))
	add(name + "_count " + formatUint(h.Count()))
}
