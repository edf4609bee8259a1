package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Fig13 reproduces Fig. 13: the cumulative distribution of the time to add
// one predicate to a live AP Tree, for several initial tree sizes.
// initial maps a label to the number of predicates the tree starts with
// (the paper uses 40/80/120 for Internet2 and 100/250/400 for Stanford;
// counts are clamped to what the scaled dataset provides).
func (e *Env) Fig13(adds int) []*Table {
	var out []*Table
	for _, name := range e.networks() {
		in := e.treeInput(name)
		pool := newPredPool(in)
		initials := []int{40, 80, 120}
		if name != "internet2" {
			initials = []int{100, 250, 400}
		}
		t := &Table{
			Title:  fmt.Sprintf("Fig 13 (%s) — CDF of time to add a predicate", name),
			Header: []string{"percentile", "", "", ""},
			Notes: []string{
				"paper: 80% of Internet2 additions < 2 ms (worst 5-6 ms); 90% of Stanford additions < 1 ms",
			},
		}
		for i, init := range initials {
			if init >= len(pool.refs) {
				init = len(pool.refs) * (i + 1) / (len(initials) + 1)
			}
			t.Header[i+1] = fmt.Sprintf("start=%d preds (ms)", init)
		}
		// Collect per-initial sorted add latencies.
		var lat [][]float64
		for i, init := range initials {
			if init >= len(pool.refs) {
				init = len(pool.refs) * (i + 1) / (len(initials) + 1)
			}
			rng := rand.New(rand.NewSource(13 + int64(i)))
			order := shuffledOrder(len(pool.refs), rng)
			m := subsetManager(pool, order, init, aptree.MethodOAPT)
			var ds []time.Duration
			n := adds
			if init+n > len(order) {
				n = len(order) - init
			}
			for k := 0; k < n; k++ {
				build := pool.builder(order[init+k])
				start := time.Now()
				m.AddPredicate(build)
				ds = append(ds, time.Since(start))
			}
			lat = append(lat, sortedDurations(ds))
		}
		for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.80, 0.90, 0.95, 0.99, 1.0} {
			row := []string{fmt.Sprintf("p%02.0f", p*100)}
			for _, l := range lat {
				row = append(row, fmt.Sprintf("%.3f", percentile(l, p)*1e3))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// dynAPLinear is the APLinear baseline under churn: it maintains the atom
// set incrementally (AP Verifier's update) and scans it linearly per query.
// Both baselines evaluate against the same pool DD, whose node store grows
// under AddPredicate's BDD operations, so they share one RWMutex: queries
// are pure reads (EvalBits) and take the read lock, updates the write lock.
type dynAPLinear struct {
	mu    *sync.RWMutex // shared with dynPScan (same underlying DD)
	d     *bdd.DD
	atoms *predicate.Atoms
}

func (a *dynAPLinear) classify(pkt []byte) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.atoms.ClassifyLinear(pkt)
}

func (a *dynAPLinear) add(id int, ref bdd.Ref) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.atoms.AddPredicate(id, ref)
}

// dynPScan is the PScan baseline under churn: a mutable predicate list
// scanned per query.
type dynPScan struct {
	mu   *sync.RWMutex // shared with dynAPLinear (same underlying DD)
	d    *bdd.DD
	refs map[int32]bdd.Ref
}

func (p *dynPScan) scan(pkt []byte) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, ref := range p.refs {
		if p.d.EvalBits(ref, pkt) {
			n++
		}
	}
	return n
}

// Fig14 reproduces Fig. 14: query throughput over time for a dynamic
// network with Poisson predicate updates and periodic reconstruction,
// compared against APLinear and PScan. One row per time bucket.
func (e *Env) Fig14(updatesPerSec int, duration, bucket, reconEvery time.Duration) []*Table {
	var out []*Table
	for _, name := range e.networks() {
		in := e.treeInput(name)
		_, ds := e.network(name)
		pool := newPredPool(in)
		rng := rand.New(rand.NewSource(14))
		order := shuffledOrder(len(pool.refs), rng)
		initial := len(pool.refs) * 7 / 10
		m := subsetManager(pool, order, initial, aptree.MethodOAPT)

		// Baselines share the pool DD (no swap hazards) and therefore one
		// RWMutex: APLinear's incremental atom update runs BDD operations
		// that grow the DD under PScan's reader.
		baseMu := new(sync.RWMutex)
		base := &dynAPLinear{mu: baseMu, d: pool.d}
		{
			refs := make([]bdd.Ref, initial)
			ids := make([]int, initial)
			for k := 0; k < initial; k++ {
				refs[k] = pool.refs[order[k]]
				ids[k] = k
			}
			base.atoms = predicate.ComputeMapped(pool.d, refs, ids, len(pool.refs))
		}
		pscan := &dynPScan{mu: baseMu, d: pool.d, refs: map[int32]bdd.Ref{}}
		for k := 0; k < initial; k++ {
			pscan.refs[int32(k)] = pool.refs[order[k]]
		}

		trace := uniformTrace(in, ds.Layout.Bytes(), 512, rng)

		// Shared clock: counts per bucket for each method.
		buckets := int(duration / bucket)
		type series struct {
			counts []uint64
		}
		mkSeries := func() *series { return &series{counts: make([]uint64, buckets)} }
		sAP, sLin, sPS := mkSeries(), mkSeries(), mkSeries()

		var wg sync.WaitGroup
		stop := make(chan struct{})
		start := time.Now()
		bucketOf := func() int {
			b := int(time.Since(start) / bucket)
			if b >= buckets {
				return -1
			}
			return b
		}
		runQuery := func(s *series, fn func(pkt []byte)) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				fn(trace[i%len(trace)])
				i++
				if b := bucketOf(); b >= 0 {
					atomic.AddUint64(&s.counts[b], 1)
				}
			}
		}
		wg.Add(3)
		go runQuery(sAP, func(p []byte) { m.Classify(p) })
		go runQuery(sLin, func(p []byte) { base.classify(p) })
		go runQuery(sPS, func(p []byte) { pscan.scan(p) })

		// Update process: Poisson arrivals, alternating add/remove.
		wg.Add(1)
		go func() {
			defer wg.Done()
			urng := rand.New(rand.NewSource(99))
			next := initial
			var deletable []int32
			for k := 0; k < initial; k++ {
				deletable = append(deletable, int32(k))
			}
			for {
				wait := time.Duration(urng.ExpFloat64() * float64(time.Second) / float64(updatesPerSec))
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
				if urng.Intn(2) == 0 && next < len(order) {
					id := m.AddPredicate(pool.builder(order[next]))
					base.add(int(id), pool.refs[order[next]])
					pscan.mu.Lock()
					pscan.refs[id] = pool.refs[order[next]]
					pscan.mu.Unlock()
					deletable = append(deletable, id)
					next++
				} else if len(deletable) > 0 {
					k := urng.Intn(len(deletable))
					id := deletable[k]
					deletable = append(deletable[:k], deletable[k+1:]...)
					m.RemovePredicate(id)
					pscan.mu.Lock()
					delete(pscan.refs, id)
					pscan.mu.Unlock()
				}
			}
		}()

		// Reconstruction process (§VI-B): rebuild every reconEvery whenever
		// the live tree took an update since the last swap.
		stopRecon := m.AutoReconstruct(1, reconEvery, false)

		time.Sleep(duration)
		close(stop)
		wg.Wait()
		stopRecon()

		t := &Table{
			Title: fmt.Sprintf("Fig 14 (%s) — throughput under %d updates/s, reconstruction every %v",
				name, updatesPerSec, reconEvery),
			Header: []string{"time (s)", "AP Classifier (Mqps)", "APLinear (Mqps)", "PScan (Mqps)"},
			Notes: []string{
				"expected shape: AP Classifier an order of magnitude above both baselines; dips recover after each reconstruction",
			},
		}
		perSec := 1.0 / bucket.Seconds()
		for b := 0; b < buckets; b++ {
			t.AddRow(fmt.Sprintf("%.2f", (time.Duration(b)*bucket).Seconds()),
				mqps(float64(sAP.counts[b])*perSec),
				mqps(float64(sLin.counts[b])*perSec),
				mqps(float64(sPS.counts[b])*perSec))
		}
		avg := func(s *series) float64 {
			var sum uint64
			for _, c := range s.counts {
				sum += c
			}
			return float64(sum) / duration.Seconds()
		}
		t.Notes = append(t.Notes, fmt.Sprintf("averages: AP Classifier %s, APLinear %s, PScan %s Mqps",
			mqps(avg(sAP)), mqps(avg(sLin)), mqps(avg(sPS))))
		out = append(out, t)
	}
	return out
}
