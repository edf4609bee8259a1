package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("apc_test_total", "test counter")
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("apc_test_total", "ignored"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
}

func TestCounterStripedConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("apc_conc_total", "concurrent counter")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("lost increments: got %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("apc_test_gauge", "test gauge")
	g.Set(7)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("apc_drops_total", "drops by reason", "reason")
	v.With("loop").Add(3)
	v.With("acl").Inc()
	if v.With("loop") != v.With("loop") {
		t.Fatalf("With not stable for same label value")
	}
	if got := v.With("loop").Value(); got != 3 {
		t.Fatalf("loop child = %d, want 3", got)
	}
	if got := v.With("acl").Value(); got != 1 {
		t.Fatalf("acl child = %d, want 1", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"counter-as-gauge", func(r *Registry) {
			r.Counter("apc_x", "h")
			r.Gauge("apc_x", "h")
		}},
		{"gauge-as-histogram", func(r *Registry) {
			r.Gauge("apc_x", "h")
			r.Histogram("apc_x", "h", DefBuckets)
		}},
		{"histogram-as-counter", func(r *Registry) {
			r.Histogram("apc_x", "h", DefBuckets)
			r.Counter("apc_x", "h")
		}},
		{"counter-as-vec", func(r *Registry) {
			r.Counter("apc_x", "h")
			r.CounterVec("apc_x", "h", "l")
		}},
		{"func-as-counter", func(r *Registry) {
			r.CounterFunc("apc_x", "h", func() uint64 { return 0 })
			r.Counter("apc_x", "h")
		}},
		{"counter-as-counterfunc", func(r *Registry) {
			r.Counter("apc_x", "h")
			r.CounterFunc("apc_x", "h", func() uint64 { return 0 })
		}},
		{"counter-as-gaugefunc", func(r *Registry) {
			r.Counter("apc_x", "h")
			r.GaugeFunc("apc_x", "h", func() float64 { return 0 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on kind mismatch")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestFuncMetricsRebind(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("apc_derived_total", "derived", func() uint64 { return 1 })
	r.GaugeFunc("apc_derived_gauge", "derived", func() float64 { return 1.5 })
	r.CounterFunc("apc_derived_total", "derived", func() uint64 { return 99 })
	r.GaugeFunc("apc_derived_gauge", "derived", func() float64 { return -2.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "apc_derived_total 99\n") {
		t.Errorf("counter func not rebound; output:\n%s", out)
	}
	if !strings.Contains(out, "apc_derived_gauge -2.5\n") {
		t.Errorf("gauge func not rebound; output:\n%s", out)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("apc_zz", "z")
	r.Counter("apc_aa", "a")
	r.Counter("apc_mm", "m")
	got := r.names()
	want := []string{"apc_aa", "apc_mm", "apc_zz"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestHistogramKeepsFirstBounds(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("apc_lat", "latency", []float64{1, 2, 3})
	h2 := r.Histogram("apc_lat", "latency", []float64{10, 20})
	if h1 != h2 {
		t.Fatalf("re-registration returned a different histogram")
	}
	if len(h1.bounds) != 3 {
		t.Fatalf("bounds overwritten: %v", h1.bounds)
	}
}

func TestBadHistogramBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			newHistogram("h", bounds)
		}()
	}
}
