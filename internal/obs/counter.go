package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numStripes is the number of independent counter stripes, a power of two
// sized to the machine, mirroring aptree's visit-counter striping.
var numStripes = func() int {
	s := 1
	for s < runtime.NumCPU() && s < 64 {
		s <<= 1
	}
	return s
}()

// stripe is one cache-line-sized counter cell. The padding keeps
// neighboring stripes on distinct 64-byte lines so concurrent increments
// by different goroutines never share a line.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeHint derives a stripe index from the address of a stack variable.
// Goroutine stacks are distinct allocations, so concurrent writers land
// on different stripes with high probability; the hint only affects
// contention, never correctness. Like aptree's visit counters (the other
// unsafe use in the module), it never converts back from uintptr.
func stripeHint() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p>>9 ^ p>>17) & uintptr(numStripes-1))
}

// Counter is a monotonically increasing striped counter. Increments hit
// one stripe (one atomic add on a goroutine-local cache line); Value sums
// the stripes. The total is exact: stripes only shard where increments
// land, never drop them.
type Counter struct {
	help    string
	stripes []stripe
}

func newCounter(help string) *Counter {
	return &Counter{help: help, stripes: make([]stripe, numStripes)}
}

// Inc adds one.
func (c *Counter) Inc() { c.stripes[stripeHint()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.stripes[stripeHint()].v.Add(n) }

// Value returns the sum over all stripes.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) sampleLines(name string, add func(string)) {
	add(name + " " + formatUint(c.Value()))
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	help string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) sampleLines(name string, add func(string)) {
	add(name + " " + formatInt(g.Value()))
}

// CounterVec is a family of counters distinguished by one label.
// Children are created on first With and live forever; resolve them once
// at init on hot paths.
type CounterVec struct {
	help  string
	label string

	mu sync.Mutex
	//lint:guard mu
	children map[string]*Counter
}

// With returns the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = newCounter(v.help)
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) metricHelp() string { return v.help }
func (v *CounterVec) sampleLines(name string, add func(string)) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	kids := make([]*Counter, 0, len(values))
	sort.Strings(values)
	for _, val := range values {
		kids = append(kids, v.children[val])
	}
	v.mu.Unlock()
	for i, val := range values {
		add(name + "{" + v.label + "=" + quoteLabel(val) + "} " + formatUint(kids[i].Value()))
	}
}

// counterFunc exposes a scrape-time computed counter (e.g. a total
// derived from the classifier's striped visit counters).
type counterFunc struct {
	help string
	mu   sync.Mutex
	//lint:guard mu
	fn func() uint64
}

func (c *counterFunc) rebind(fn func() uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fn = fn
}

func (c *counterFunc) value() uint64 {
	c.mu.Lock()
	fn := c.fn
	c.mu.Unlock()
	return fn()
}

func (c *counterFunc) metricType() string { return "counter" }
func (c *counterFunc) metricHelp() string { return c.help }
func (c *counterFunc) sampleLines(name string, add func(string)) {
	add(name + " " + formatUint(c.value()))
}

// gaugeFunc exposes a scrape-time computed gauge.
type gaugeFunc struct {
	help string
	mu   sync.Mutex
	//lint:guard mu
	fn func() float64
}

func (g *gaugeFunc) rebind(fn func() float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fn = fn
}

func (g *gaugeFunc) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	return fn()
}

func (g *gaugeFunc) metricType() string { return "gauge" }
func (g *gaugeFunc) metricHelp() string { return g.help }
func (g *gaugeFunc) sampleLines(name string, add func(string)) {
	add(name + " " + formatFloat(g.value()))
}
