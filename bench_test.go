package apclassifier_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VII), plus per-operation microbenchmarks and the ablation
// benches called out in DESIGN.md. The figure benches run a whole
// experiment per iteration and report its headline number via
// b.ReportMetric; `cmd/apbench` prints the full tables.
//
// Scale: controlled by APBENCH_SCALE (small|mid|full); benchmarks default
// to "small" unless the variable is set, so `go test -bench=.` stays fast.

import (
	"math/rand"

	apclassifier "apclassifier"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/experiments"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
)

var benchEnv *experiments.Env

func benchScale() experiments.Scale {
	if os.Getenv("APBENCH_SCALE") == "" {
		return experiments.ScaleSmall
	}
	return experiments.DefaultScale()
}

func getEnv(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		e, err := experiments.NewEnv(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = e
	}
	return benchEnv
}

const benchDur = 50 * time.Millisecond

// parseMqps extracts a Mqps cell.
func parseMqps(b *testing.B, s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// --- Per-operation microbenchmarks (the headline numbers) ---

func benchClassify(b *testing.B, c *apclassifier.Classifier, ds *netgen.Dataset) {
	rng := rand.New(rand.NewSource(1))
	trace := make([][]byte, 1024)
	for i := range trace {
		trace[i] = ds.PacketFromFields(ds.RandomFields(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(trace[i%len(trace)])
	}
}

func benchBehavior(b *testing.B, c *apclassifier.Classifier, ds *netgen.Dataset) {
	rng := rand.New(rand.NewSource(2))
	trace := make([][]byte, 1024)
	ing := make([]int, 1024)
	for i := range trace {
		trace[i] = ds.PacketFromFields(ds.RandomFields(rng))
		ing[i] = rng.Intn(len(ds.Boxes))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Behavior(ing[i%1024], trace[i%len(trace)])
	}
}

func BenchmarkClassifyInternet2(b *testing.B) {
	e := getEnv(b)
	benchClassify(b, e.I2, e.I2DS)
}

func BenchmarkClassifyStanford(b *testing.B) {
	e := getEnv(b)
	benchClassify(b, e.SF, e.SFDS)
}

func BenchmarkBehaviorInternet2(b *testing.B) {
	e := getEnv(b)
	benchBehavior(b, e.I2, e.I2DS)
}

func BenchmarkBehaviorStanford(b *testing.B) {
	e := getEnv(b)
	benchBehavior(b, e.SF, e.SFDS)
}

// BenchmarkBehaviorBatch compares the batched query pipeline against the
// single-packet path on a bursty trace (each header repeated in flows of
// 16, the locality real query streams have) with one deterministic
// middlebox attached so stage 2 is non-trivial but cacheable. Both paths
// share the per-epoch memo; the batch path additionally collapses
// duplicate headers in stage 1. ns/op is per packet in every
// sub-benchmark.
func BenchmarkBehaviorBatch(b *testing.B) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: benchScale().I2})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		b.Fatal(err)
	}
	match := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref { return bdd.True })
	target := ds.PacketFromFields(ds.RandomFields(rand.New(rand.NewSource(7))))
	if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{{Op: apclassifier.OpSetMiddlebox, Box: 0, MB: &network.Middlebox{
		Name: "bench-mb",
		Entries: []network.MBEntry{{
			Match: match, Type: network.MBDeterministic,
			Rewrite: func(pkt []byte) [][]byte {
				out := make([]byte, len(target))
				copy(out, target)
				return [][]byte{out}
			},
		}},
	}}}); err != nil {
		b.Fatal(err)
	}

	const flow = 16
	rng := rand.New(rand.NewSource(8))
	trace := make([][]byte, 4096)
	ing := make([]int, len(trace))
	for i := 0; i < len(trace); i += flow {
		pkt := ds.PacketFromFields(ds.RandomFields(rng))
		box := rng.Intn(len(ds.Boxes))
		for k := i; k < len(trace) && k < i+flow; k++ {
			trace[k] = pkt
			ing[k] = box
		}
	}

	b.Run("single", func(b *testing.B) {
		w := c.NewWalker()
		for i := 0; i < b.N; i++ {
			c.BehaviorWith(w, ing[i%len(ing)], trace[i%len(trace)])
		}
	})
	for _, size := range []int{16, 64, 256} {
		b.Run("batch"+strconv.Itoa(size), func(b *testing.B) {
			buf := c.NewBatchBuffer()
			pos := 0
			for i := 0; i < b.N; i += size {
				if pos+size > len(trace) {
					pos = 0
				}
				c.Snapshot().BehaviorBatch(buf, ing[pos:pos+size], trace[pos:pos+size])
				pos += size
			}
		})
	}
}

// --- One benchmark per table/figure ---

func BenchmarkTableI_DatasetStats(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.TableI()
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig4_ThroughputVsDepth(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		tabs := e.Fig4(5, 128, benchDur)
		star := tabs[0].Rows[len(tabs[0].Rows)-1]
		b.ReportMetric(parseMqps(b, star[2]), "I2-OAPT-Mqps")
	}
}

func BenchmarkFig9_AverageDepth(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.Fig9(10)
		b.ReportMetric(parseMqps(b, t.Rows[0][3]), "I2-OAPT-depth")
		b.ReportMetric(parseMqps(b, t.Rows[1][3]), "SF-OAPT-depth")
	}
}

func BenchmarkFig10_DepthCDF(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		tabs := e.Fig10(10)
		if len(tabs) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkMemoryUsage(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.MemoryUsage()
		b.ReportMetric(parseMqps(b, t.Rows[0][2]), "I2-MB")
		b.ReportMetric(parseMqps(b, t.Rows[1][2]), "SF-MB")
	}
}

func BenchmarkFig11_ConstructionTime(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.Fig11(3)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig12_StaticThroughput(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.Fig12(5, 128, benchDur)
		for _, row := range t.Rows {
			if row[0] == "internet2" && row[1] == "AP Classifier (OAPT)" {
				b.ReportMetric(parseMqps(b, row[2]), "I2-OAPT-Mqps")
			}
			if row[0] == "internet2" && row[1] == "HSA (Hassel)" {
				b.ReportMetric(parseMqps(b, row[2])*1000, "I2-HSA-Kqps")
			}
		}
	}
}

func BenchmarkFig13_UpdateLatency(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		tabs := e.Fig13(25)
		if len(tabs) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig14_DynamicThroughput(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		tabs := e.Fig14(100, 600*time.Millisecond, 100*time.Millisecond, 200*time.Millisecond)
		if len(tabs) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig15_PacketDistribution(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		tabs := e.Fig15(3, 256, benchDur)
		if len(tabs) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkTableII_HeaderChanges(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.TableII(128, benchDur)
		b.ReportMetric(parseMqps(b, t.Rows[0][2]), "I2-1MB-r0.9-Mqps")
	}
}

func BenchmarkScalingSweep(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.Scaling([]float64{0.02, 0.05}, 128, benchDur)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkOptimalityGap(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		t := e.OptimalityGap(8, 5)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblation_OAPTNoSplitFilter compares OAPT construction with and
// without dropping non-splitting predicates from subtree candidate sets.
func BenchmarkAblation_OAPTNoSplitFilter(b *testing.B) {
	e := getEnv(b)
	in := e.I2.TreeInput()
	for _, filter := range []bool{true, false} {
		name := "filter-on"
		if !filter {
			name = "filter-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in2 := in
				in2.NoSplitFilter = !filter
				t := aptree.Build(in2, aptree.MethodOAPT)
				t.Drop()
			}
		})
	}
}

// BenchmarkAblation_Stage2MemberVsBDD compares stage-2 port decisions via
// membership bit tests against re-evaluating the port predicate BDDs — the
// design decision that makes stage 2 nearly free.
func BenchmarkAblation_Stage2MemberVsBDD(b *testing.B) {
	e := getEnv(b)
	c, ds := e.I2, e.I2DS
	rng := rand.New(rand.NewSource(3))
	trace := make([][]byte, 512)
	ing := make([]int, 512)
	for i := range trace {
		trace[i] = ds.PacketFromFields(ds.RandomFields(rng))
		ing[i] = rng.Intn(len(ds.Boxes))
	}
	b.Run("member-bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Behavior(ing[i%512], trace[i%len(trace)])
		}
	})
	b.Run("member-bits-walker", func(b *testing.B) {
		w := c.NewWalker()
		for i := 0; i < b.N; i++ {
			c.BehaviorWith(w, ing[i%512], trace[i%len(trace)])
		}
	})
	b.Run("bdd-eval", func(b *testing.B) {
		sim := newFwdSimForBench(c)
		for i := 0; i < b.N; i++ {
			sim(ing[i%512], trace[i%len(trace)])
		}
	})
}

// newFwdSimForBench adapts the forwarding-simulation baseline as the
// "stage 2 by BDD evaluation" arm of the ablation.
func newFwdSimForBench(c *apclassifier.Classifier) func(int, []byte) {
	d := c.Manager.DD()
	net := c.Net
	wiring := network.WiringOf(c.Manager.Snapshot())
	return func(ingress int, pkt []byte) {
		// Same traversal as network.Behavior but deciding each port by
		// BDD evaluation instead of a membership bit.
		visited := make(map[int]bool)
		queue := []int{ingress}
		for len(queue) > 0 {
			bi := queue[0]
			queue = queue[1:]
			if visited[bi] {
				continue
			}
			visited[bi] = true
			box := net.Boxes[bi]
			for pi := range box.Ports {
				id := wiring.Fwd(bi, pi)
				if id < 0 {
					continue
				}
				if !d.EvalBits(c.Manager.Ref(id), pkt) {
					continue
				}
				if box.Ports[pi].Peer.Kind == 1 { // DestBox
					queue = append(queue, box.Ports[pi].Peer.Box)
				}
			}
		}
	}
}

// BenchmarkAblation_BDDOpCacheSize sweeps the BDD operation-cache size and
// measures atomic-predicate computation, the heaviest BDD workload.
func BenchmarkAblation_BDDOpCacheSize(b *testing.B) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.02})
	for _, bits := range []int{10, 14, 16, 18} {
		b.Run("cache-2^"+strconv.Itoa(bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := bdd.NewWithCache(ds.Layout.Bits(), 1<<uint(bits))
				var refs []bdd.Ref
				for bi := range ds.Boxes {
					for _, p := range predicate.PortPredicates(d, ds.Layout, "dstIP", &ds.Boxes[bi].Fwd, ds.Boxes[bi].NumPorts) {
						if p != bdd.False {
							refs = append(refs, p)
						}
					}
				}
				ids := make([]int, len(refs))
				for j := range ids {
					ids[j] = j
				}
				predicate.ComputeMapped(d, refs, ids, len(refs))
			}
		})
	}
}

// BenchmarkAblation_AtomSetOps compares the sorted-slice set intersection
// used during OAPT construction against a bitset alternative.
func BenchmarkAblation_AtomSetOps(b *testing.B) {
	e := getEnv(b)
	in := e.SF.TreeInput()
	rsets := make([][]int32, 0, len(in.Live))
	for _, id := range in.Live {
		var r []int32
		in.Atoms.RSet(int(id)).Each(func(a int32) bool { r = append(r, a); return true })
		rsets = append(rsets, r)
	}
	n := in.Atoms.N()
	b.Run("sorted-slices", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := rsets[i%len(rsets)]
			c := rsets[(i*7+1)%len(rsets)]
			k, x, y := 0, 0, 0
			for x < len(a) && y < len(c) {
				switch {
				case a[x] < c[y]:
					x++
				case a[x] > c[y]:
					y++
				default:
					k++
					x++
					y++
				}
			}
			_ = k
		}
	})
	b.Run("bitsets", func(b *testing.B) {
		bs := make([]predicate.Bitset, len(rsets))
		for i, r := range rsets {
			bs[i] = predicate.NewBitset(n)
			for _, a := range r {
				bs[i].Set(int(a), true)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := bs[i%len(bs)]
			c := bs[(i*7+1)%len(bs)]
			k := 0
			for w := range a {
				k += popcount(a[w] & c[w])
			}
			_ = k
		}
	})
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// BenchmarkRuleDelta times single-rule deltas on Internet2 ×1.0: the
// 3,000-step program of RuleDeltaProgram (a more-specific child installed
// on a different port, the oldest of nine installed children removed),
// replayed in order and cycled when b.N exceeds it, one ApplyRuleDeltas
// per step. ns/op is per delta; p50-ns/delta is the median, which the
// first step after a cold build and the occasional GC pause do not move.
func BenchmarkRuleDelta(b *testing.B) {
	cfg := netgen.Config{Seed: 1, RuleScale: 1.0}
	c, err := apclassifier.New(netgen.Internet2Like(cfg), apclassifier.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, _ := apclassifier.RuleDeltaProgram(cfg, 7, 3000)
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := c.ApplyRuleDeltas(prog[i%len(prog)]); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/delta")
}
