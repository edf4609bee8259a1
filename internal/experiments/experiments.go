// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the synthetic Internet2-like and Stanford-like
// datasets. Each experiment returns printable tables; cmd/apbench renders
// them and the root bench_test.go wraps them as benchmarks.
//
// Scales: the paper's full rule volumes make some experiments take
// minutes; the default "mid" scale keeps every experiment in seconds while
// preserving predicate counts (which is what the algorithms actually see).
// Set APBENCH_SCALE=full for paper-scale rule volumes, or =small for CI.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/netgen"
)

// Scale sets the generator rule scales for the two networks.
type Scale struct {
	Name   string
	I2, SF float64
}

// Scales.
var (
	ScaleSmall = Scale{"small", 0.02, 0.005}
	ScaleMid   = Scale{"mid", 0.2, 0.05}
	ScaleFull  = Scale{"full", 1.0, 1.0}
)

// DefaultScale reads APBENCH_SCALE (small|mid|full); default mid.
func DefaultScale() Scale {
	switch os.Getenv("APBENCH_SCALE") {
	case "full":
		return ScaleFull
	case "small":
		return ScaleSmall
	}
	return ScaleMid
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Env caches the compiled datasets every experiment shares.
type Env struct {
	Scale Scale
	I2DS  *netgen.Dataset
	SFDS  *netgen.Dataset
	I2    *apclassifier.Classifier
	SF    *apclassifier.Classifier

	i2Input, sfInput *aptree.Input
}

// NewEnv generates and compiles both datasets.
func NewEnv(scale Scale) (*Env, error) {
	e := &Env{Scale: scale}
	e.I2DS = netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: scale.I2})
	e.SFDS = netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: scale.SF})
	var err error
	if e.I2, err = apclassifier.New(e.I2DS, apclassifier.Options{}); err != nil {
		return nil, err
	}
	if e.SF, err = apclassifier.New(e.SFDS, apclassifier.Options{}); err != nil {
		return nil, err
	}
	return e, nil
}

// network selects one of the two compiled networks by short name.
func (e *Env) network(name string) (*apclassifier.Classifier, *netgen.Dataset) {
	if name == "internet2" {
		return e.I2, e.I2DS
	}
	return e.SF, e.SFDS
}

// networks iterates both datasets.
func (e *Env) networks() []string { return []string{"internet2", "stanford"} }

// treeInput caches the experiment-grade build input per network.
func (e *Env) treeInput(name string) aptree.Input {
	c, _ := e.network(name)
	cache := &e.i2Input
	if name != "internet2" {
		cache = &e.sfInput
	}
	if *cache == nil {
		in := c.TreeInput()
		*cache = &in
	}
	return **cache
}

// uniformTrace draws n packets uniformly over the atoms of the build input
// — the paper's query workload ("generated randomly with respect to the
// atomic predicates").
func uniformTrace(in aptree.Input, nbytes, n int, rng *rand.Rand) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		atom := rng.Intn(in.Atoms.N())
		out[i] = in.Atoms.SamplePacket(atom, nbytes, rng)
	}
	return out
}

// paretoWeights draws per-atom query weights from Pareto(xm=1, α=1) scaled
// so about half the atoms get ~1000 packets, as in §VII-F.
func paretoWeights(natoms int, rng *rand.Rand) []float64 {
	w := make([]float64, natoms)
	for i := range w {
		x := 1.0 / (1.0 - rng.Float64()) // Pareto xm=1, α=1
		if x > 100 {
			x = 100 // cap the tail like a finite trace would
		}
		w[i] = x * 1000
	}
	return w
}

// weightedTrace draws n packets with per-atom weights.
func weightedTrace(in aptree.Input, nbytes, n int, weights []float64, rng *rand.Rand) [][]byte {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	out := make([][]byte, n)
	for i := range out {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = in.Atoms.SamplePacket(lo, nbytes, rng)
	}
	return out
}

// measureQPS runs fn over the trace repeatedly for at least minDur and
// returns queries per second.
func measureQPS(fn func(pkt []byte), trace [][]byte, minDur time.Duration) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		for _, pkt := range trace {
			fn(pkt)
		}
		n += len(trace)
	}
	return float64(n) / time.Since(start).Seconds()
}

// mqps formats queries/second in millions.
func mqps(v float64) string { return fmt.Sprintf("%.2f", v/1e6) }
