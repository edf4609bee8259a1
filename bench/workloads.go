package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"apclassifier/internal/netgen"
)

// sizing is everything that scales a run. The full sizing is what
// BENCHMARK.json measures; the smoke sizing exists so the test can push
// every workload and the traced pass through in seconds.
type sizing struct {
	i2Scale, sfScale float64
	fat              netgen.FatTreeConfig
	headers          int // lib_query header pool
	singles          int // query_single pre-encoded bodies
	batches          int // query_batch / router_batch pre-encoded bodies
	churnBatch       int // headers per churn_mixed query request
	probes           int // oracle-checked queries before each window
	setups           int // fewest timed set-ups per untraced run; setup_s is their median
	warmup           time.Duration
	replays          int // requests replayed per layer in the traced pass
	calibIters       int // steps of the fixed loop that brackets each slice
}

// Datasets are the program's configuration, not its input: their seed is
// fixed so that -seed varies only what is sent.
const datasetSeed = 1

var fullSizing = sizing{
	i2Scale: 1.0, sfScale: 0.1, fat: netgen.FatTreeMid,
	headers: 65536, singles: 8192, batches: 64, churnBatch: 64,
	probes: 2048, setups: 3, warmup: time.Second, replays: 256, calibIters: 1 << 19,
}

var smokeSizing = sizing{
	i2Scale: 0.02, sfScale: 0.005, fat: netgen.FatTreeSmall,
	headers: 4096, singles: 512, batches: 8, churnBatch: 64,
	probes: 256, setups: 1, warmup: 50 * time.Millisecond, replays: 16, calibIters: 1 << 15,
}

const (
	batchSize   = 256  // headers per /query/batch request, the server's maximum
	libChunk    = 256  // lib_query times this many facade calls as one operation
	minSlices   = 5    // a window is cut into one slice per second, and at least this many
	noisyOver   = 1.10 // a slice counts as noisy when its calibration exceeds the fastest by 10%
	churnPeriod = 50 * time.Millisecond
	churnOps    = 2 // FIB ops per /rules/batch request
)

// slicesFor is how many slices a window of the given length is cut into.
func slicesFor(seconds float64) int { return max(minSlices, int(seconds+0.5)) }

// keepOf is how many of n slices (or set-ups) are reported: the fastest
// quarter of the slices, the faster two thirds of the set-ups.
func keepOf(n, num, den int) int { return max(1, n*num/den) }

// workload is one named traffic mix. tailQ is the highest percentile that
// keeps at least ten samples beyond it at the full sizing.
type workload struct {
	name, why string
	tailQ     float64
	setup     func(env *env) (bed, error)
}

// env is what a set-up receives, and where it leaves the per-layer values
// it alone can know: stage times, checkpoint size, tree shape.
type env struct {
	sz     sizing
	seed   int64
	tr     *tracer // nil in the untraced run
	layers map[string]float64
}

// bed is a set-up workload: the program under test plus generated load.
type bed interface {
	// prepare generates the load from the seed and makes the correctness
	// pass: probes go through the workload's own path and must agree
	// with netgen.Dataset.Simulate.
	prepare() (attempted, failed int, err error)
	// slice offers load for d and reports what completed.
	slice(d time.Duration, tr *tracer) sliceStat
	// recheck runs after the window; workloads that mutate rules check
	// the final epoch against the oracle again.
	recheck() (attempted, failed int, err error)
	// replay drives the generated inputs through each public boundary,
	// one at a time, recording a span per call.
	replay(tr *tracer) error
	close()
}

var workloads = []workload{
	{"lib_query", "in-process facade calls on Internet2-like x1.0 (paper Fig 12): stage-1 classify is nearly all the work, server and cluster do none", 0.99, setupLib},
	{"query_single", "POST /query, one header per request: smallest message, so net/http, JSON and the trace ring dominate and classify is a few percent", 0.99, setupSingle},
	{"query_batch", "POST /query/batch of 256 distinct headers on Stanford-like x0.1: decode, batch classify and encode each take about a third", 0.99, setupBatch},
	{"router_batch", "the query_batch bodies through cluster.Router over two shards, one cold-built and one restored from its checkpoint: only the hop differs", 0.99, setupRouter},
	{"churn_mixed", "closed-loop /query/batch beside open-loop /rules/batch at 20 batches/s: write lock, epoch publish and behaviour-cache drop under reads", 0.95, setupChurn},
	{"verify_churn", "fat-tree rule change to fresh loop and all-pairs reachability verdict: verify and stage-2 walks, absent everywhere else", 0.90, setupVerify},
}

// sliceStat is what one slice of load completed.
type sliceStat struct {
	dur    time.Duration
	calib  time.Duration
	ops    int64   // headers answered (verify_churn: ingress x host pairs verified)
	reqs   int     // operations attempted
	failed int     // non-200, transport errors, answers that differ from the checked ones
	lat    []int64 // ns per timed operation
	late   []int64 // ns the open-loop generator sent after the due time
	stall  int64   // largest closed-loop query latency, ns
}

func (s sliceStat) qps() float64 { return float64(s.ops) / s.dur.Seconds() }

// calibRing is what the calibration loop chases through: one random cycle
// larger than a last-level cache slice, so that the loop slows down with
// the memory system as well as with the core. The slow phases of this host
// stretch set-up and the BDD-heavy workloads several times over while a
// pure ALU loop barely notices.
const calibRing = 4 << 20 // uint32 entries: 16 MB

var (
	calibOnce sync.Once
	calibData []uint32
	calibSink uint32
)

// calibrate times a fixed loop: a dependent pointer chase through the ring
// plus ALU work on each value.
func calibrate(iters int) time.Duration {
	calibOnce.Do(func() {
		// Sattolo's shuffle: a permutation that is a single cycle.
		rng := rand.New(rand.NewSource(1))
		calibData = make([]uint32, calibRing)
		for i := range calibData {
			calibData[i] = uint32(i)
		}
		for i := len(calibData) - 1; i > 0; i-- {
			k := rng.Intn(i)
			calibData[i], calibData[k] = calibData[k], calibData[i]
		}
	})
	t0 := time.Now()
	at, x := uint32(0), uint32(2463534242)
	for i := 0; i < iters; i++ {
		at = calibData[at]
		x ^= at
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	calibSink += x
	return time.Since(t0)
}

// measure runs n slices, each bracketed by the calibration loop.
func measure(b bed, n int, d time.Duration, tr *tracer, iters int) []sliceStat {
	runtime.GC()
	after := calibrate(iters)
	all := make([]sliceStat, n)
	for i := range all {
		before := after
		all[i] = b.slice(d, tr)
		// Collect the slice's garbage first: the collector would otherwise
		// stretch the loop.
		runtime.GC()
		after = calibrate(iters)
		all[i].calib = max(before, after)
	}
	return all
}

// calibOf returns the fastest calibration of the slices and how many of
// them were noisy: more than noisyOver times that. The count is context
// for the reader. Noisy slices are neither dropped nor re-run: over 24
// runs on the host this was built on, dropping them left the run-to-run
// spread where it was (a slow phase the loop sees also takes the slice out
// of the fastest quarter), and re-runs spend seconds the window can use.
func calibOf(ss []sliceStat) (best time.Duration, noisy int) {
	best = ss[0].calib
	for _, s := range ss {
		best = min(best, s.calib)
	}
	for _, s := range ss {
		if float64(s.calib) > float64(best)*noisyOver {
			noisy++
		}
	}
	return best, noisy
}

// fastest returns the keep slices with the highest qps. A busy neighbour
// only ever slows a slice down — on this host in episodes of seconds to
// minutes that cost a fifth to a half of the throughput and that the
// calibration loop sees only partly — so the fastest slices are the ones
// that measured the program.
func fastest(ss []sliceStat, keep int) []sliceStat {
	out := append([]sliceStat(nil), ss...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].qps() > out[j].qps() })
	return out[:min(keep, len(out))]
}

// percentiles returns the q-quantile of each slice's latencies in ms, and
// of all of them pooled.
func percentiles(ss []sliceStat, q float64) (perSlice []float64, pooled float64, fewest int) {
	var all []int64
	fewest = -1
	for _, s := range ss {
		l := append([]int64(nil), s.lat...)
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		perSlice = append(perSlice, float64(percentile(l, q))/1e6)
		all = append(all, l...)
		if fewest < 0 || len(l) < fewest {
			fewest = len(l)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return perSlice, float64(percentile(all, q)) / 1e6, fewest
}

// latency is a percentile over the given slices: the median of the
// per-slice values when every slice keeps ten samples beyond it, and
// otherwise the percentile of the pooled samples.
func latency(ss []sliceStat, q float64) float64 {
	perSlice, pooled, fewest := percentiles(ss, q)
	if float64(fewest)*(1-q) >= 10 {
		return median(perSlice)
	}
	return pooled
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runWorkload is the run shape: set-up (timed) → correctness pass → warm-up
// → measured window in slices → re-check. The traced run sets up once,
// measures its traced slices between untraced ones, replays the layers and
// writes the trace file under outDir.
//
// The whole run has one P: client, servers and router take turns on one
// core, and the machine's other core is left to whatever else it runs. A
// closed loop with one request in flight has one runnable goroutine at a
// time anyway. With two Ps and two connections, 1 s slices of query_single
// switched between two modes every few seconds (p50 41 µs and 56 µs, as
// wake-ups stayed on a CPU or crossed), and one busy process beside the
// benchmark halved query_batch (313k to 155k qps); with one P the same
// process moved nothing.
func runWorkload(w *workload, sz sizing, seed int64, seconds float64, traced bool, outDir string) (*runRecord, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := &runRecord{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Transport: transportNote, Host: host(),
		Tail:   fmt.Sprintf("p%.0f", w.tailQ*100),
		Result: &result{Metrics: map[string]value{}},
	}
	e := &env{sz: sz, seed: seed, layers: map[string]float64{}}
	setups := sz.setups
	if traced {
		rec.Trace, setups = 1, 1
		e.tr = newTracer()
	}

	// A set-up that takes milliseconds is repeated more often, for as long
	// as all of them together stay under a second.
	var b bed
	var setupS []float64
	total := 0.0
	for i := 0; i < setups || (!traced && total < 1 && i < 5*setups); i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[i]
	}
	defer func() { b.close() }()
	heap := heapMB()

	attempted, failed, err := b.prepare()
	if err != nil {
		return nil, fmt.Errorf("correctness pass: %w", err)
	}
	b.slice(sz.warmup, nil)

	// Every slice run counts toward attempted and failed, kept or not.
	n := slicesFor(seconds)
	d := time.Duration(seconds / float64(n) * float64(time.Second))
	run := func(n int, tr *tracer) []sliceStat {
		all := measure(b, n, d, tr, sz.calibIters)
		for _, s := range all {
			attempted += s.reqs
			failed += s.failed
		}
		return all
	}
	layer := map[string]float64{}
	if !traced {
		endToEnd(rec, w, setupS, heap, run(n, nil))
	} else {
		// Untraced slices on either side of the traced ones, so that a
		// workload that drifts as rule changes accumulate does not show up
		// as tracing overhead.
		side := max(1, n/5)
		untraced := run(side, nil)
		before, mem0 := scrape(), memNow()
		kept := run(n-2*side, e.tr)
		after, mem1 := scrape(), memNow()
		untraced = append(untraced, run(side, nil)...)
		rec.Absent = obsLayers(layer, before, after)
		runtimeLayers(layer, mem0, mem1, kept)
		calib, noisy := calibOf(kept)
		layer["loadgen.op_tail_ms"] = latency(fastest(untraced, keepOf(len(untraced), 1, 2)), w.tailQ)
		layer["host.calib_ms"] = calib.Seconds() * 1e3
		layer["host.noisy_slices"] = float64(noisy)
		layer["trace.overhead_ratio"] = ratio(median(qpsOf(kept)), median(qpsOf(untraced)))
	}

	a2, f2, err := b.recheck()
	if err != nil {
		return nil, fmt.Errorf("re-check: %w", err)
	}
	rec.Result.Attempted, rec.Result.Failed = attempted+a2, failed+f2
	rec.Result.Correct = rec.Result.Failed == 0 && rec.Result.Attempted > 0

	if traced {
		if err := b.replay(e.tr); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		for k, v := range e.layers {
			layer[k] = v
		}
		sum := e.tr.summary()
		spanLayers(layer, sum)
		for _, def := range perLayer {
			rec.Result.Metrics[def.name] = value{layer[def.name], def.unit}
		}
		if err := e.tr.writeFile(outDir, rec, sum); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// endToEnd reduces an untraced run to its four metrics: the fastest
// quarter of the slices is reported, and set-up time comes from the faster
// two thirds of the set-ups. The noise bands cover everything that ran.
func endToEnd(rec *runRecord, w *workload, setupS []float64, heap float64, all []sliceStat) {
	calib, noisy := calibOf(all)
	rec.CalibMS, rec.NoisySlices = calib.Seconds()*1e3, noisy
	p50s, _, _ := percentiles(all, 0.5)
	tails, _, _ := percentiles(all, w.tailQ)
	rec.Noise = map[string]float64{"setup_s": band(setupS), "qps": band(qpsOf(all)), "op_p50_ms": band(p50s), "op_tail_ms": band(tails)}
	kept := fastest(all, keepOf(len(all), 1, 4))
	for _, s := range kept {
		rec.Samples += len(s.lat)
	}
	rec.TailMS = latency(kept, w.tailQ)
	sort.Float64s(setupS)
	for name, v := range map[string]float64{
		"setup_s":      median(setupS[:keepOf(len(setupS), 2, 3)]),
		"live_heap_mb": heap,
		"qps":          median(qpsOf(kept)),
		"op_p50_ms":    latency(kept, 0.5),
	} {
		rec.Result.Metrics[name] = value{v, endToEndUnit[name]}
	}
}

func qpsOf(ss []sliceStat) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.qps()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rngFor derives an independent stream per purpose from the run's seed.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}
