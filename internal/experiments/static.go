package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"apclassifier/internal/aptree"
	"apclassifier/internal/baseline"
	"apclassifier/internal/bdd"
	"apclassifier/internal/hsa"
	"apclassifier/internal/rule"
	"apclassifier/internal/trie"
)

// ruleFields aliases the 5-tuple ground-truth type for trace buffers.
type ruleFields = rule.Fields

// TableI reproduces Table I: statistics of the two networks.
func (e *Env) TableI() *Table {
	t := &Table{
		Title:  "Table I — statistics of the two networks (synthetic stand-ins)",
		Header: []string{"network", "boxes", "fwd rules", "ACL rules", "predicates", "atomic predicates"},
		Notes: []string{
			"paper full-scale reference: Internet2 126,017 rules / 161 predicates; Stanford 757,170 rules + 1,584 ACL rules / 507 predicates",
			fmt.Sprintf("generator scale: %s (internet2 ×%.3g, stanford ×%.3g)", e.Scale.Name, e.Scale.I2, e.Scale.SF),
		},
	}
	for _, name := range e.networks() {
		c, ds := e.network(name)
		t.AddRow(name,
			fmt.Sprint(len(ds.Boxes)),
			fmt.Sprint(ds.NumRules()),
			fmt.Sprint(ds.NumACLRules()),
			fmt.Sprint(c.NumPredicates()),
			fmt.Sprint(c.NumAtoms()),
		)
	}
	return t
}

// randomTrees builds n pruned AP Trees with random predicate orders and
// returns them; the caller must Drop() them.
func randomTrees(in aptree.Input, n int, seed int64) []*aptree.Tree {
	trees := make([]*aptree.Tree, n)
	for i := range trees {
		in.Rand = rand.New(rand.NewSource(seed + int64(i)))
		trees[i] = aptree.Build(in, aptree.MethodRandom)
	}
	return trees
}

// Fig4 reproduces Fig. 4: query throughput versus average leaf depth over
// randomly ordered AP Trees, with the OAPT tree as the star point.
func (e *Env) Fig4(numTrees, traceLen int, minDur time.Duration) []*Table {
	var out []*Table
	for _, name := range e.networks() {
		in := e.treeInput(name)
		_, ds := e.network(name)
		rng := rand.New(rand.NewSource(4))
		trace := uniformTrace(in, ds.Layout.Bytes(), traceLen, rng)
		t := &Table{
			Title:  fmt.Sprintf("Fig 4 (%s) — query throughput vs average depth, %d random trees + OAPT", name, numTrees),
			Header: []string{"tree", "avg depth", "throughput (Mqps)"},
		}
		trees := randomTrees(in, numTrees, 4)
		for i, tree := range trees {
			q := measureQPS(func(p []byte) { tree.Classify(p) }, trace, minDur)
			t.AddRow(fmt.Sprintf("random-%02d", i), fmt.Sprintf("%.1f", tree.AverageDepth()), mqps(q))
			tree.Drop()
		}
		opt := aptree.Build(in, aptree.MethodOAPT)
		q := measureQPS(func(p []byte) { opt.Classify(p) }, trace, minDur)
		t.AddRow("OAPT (star)", fmt.Sprintf("%.1f", opt.AverageDepth()), mqps(q))
		opt.Drop()
		t.Notes = append(t.Notes, "expected shape: throughput decreases as average depth grows; OAPT dominates")
		out = append(out, t)
	}
	return out
}

// buildThree builds Best-from-Random (min average depth over n random
// orders), Quick-Ordering, and OAPT trees.
func buildThree(in aptree.Input, nRandom int) (best, quick, oapt *aptree.Tree) {
	trees := randomTrees(in, nRandom, 9)
	best = trees[0]
	for _, tr := range trees[1:] {
		if tr.AverageDepth() < best.AverageDepth() {
			best.Drop()
			best = tr
		} else {
			tr.Drop()
		}
	}
	quick = aptree.Build(in, aptree.MethodQuick)
	oapt = aptree.Build(in, aptree.MethodOAPT)
	return best, quick, oapt
}

// Fig9 reproduces Fig. 9: average leaf depth per construction method.
func (e *Env) Fig9(nRandom int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 9 — average depth of leaves (Best from %d Random / Quick-Ordering / OAPT)", nRandom),
		Header: []string{"network", "best-from-random", "quick-ordering", "OAPT"},
		Notes:  []string{"paper: Internet2 16.0 / 13.0 / 10.6; Stanford 39.0 / 24.2 / 16.9"},
	}
	for _, name := range e.networks() {
		in := e.treeInput(name)
		best, quick, oapt := buildThree(in, nRandom)
		t.AddRow(name,
			fmt.Sprintf("%.1f", best.AverageDepth()),
			fmt.Sprintf("%.1f", quick.AverageDepth()),
			fmt.Sprintf("%.1f", oapt.AverageDepth()))
		best.Drop()
		quick.Drop()
		oapt.Drop()
	}
	return t
}

// Fig10 reproduces Fig. 10: cumulative distribution of leaf depths.
func (e *Env) Fig10(nRandom int) []*Table {
	var out []*Table
	for _, name := range e.networks() {
		in := e.treeInput(name)
		best, quick, oapt := buildThree(in, nRandom)
		t := &Table{
			Title:  fmt.Sprintf("Fig 10 (%s) — CDF of leaf depths", name),
			Header: []string{"depth", "best-from-random %", "quick-ordering %", "OAPT %"},
		}
		hb, hq, ho := best.DepthHistogram(), quick.DepthHistogram(), oapt.DepthHistogram()
		maxD := len(hb)
		if len(hq) > maxD {
			maxD = len(hq)
		}
		if len(ho) > maxD {
			maxD = len(ho)
		}
		cum := func(h []int, d int) float64 {
			c, total := 0, 0
			for _, v := range h {
				total += v
			}
			for i := 0; i <= d && i < len(h); i++ {
				c += h[i]
			}
			return 100 * float64(c) / float64(total)
		}
		for d := 0; d < maxD; d++ {
			t.AddRow(fmt.Sprint(d),
				fmt.Sprintf("%.1f", cum(hb, d)),
				fmt.Sprintf("%.1f", cum(hq, d)),
				fmt.Sprintf("%.1f", cum(ho, d)))
		}
		t.Notes = append(t.Notes, "expected shape: OAPT curve strictly above the others at every depth")
		best.Drop()
		quick.Drop()
		oapt.Drop()
		out = append(out, t)
	}
	return out
}

// MemoryUsage reproduces §VII-B: memory cost of all classifier components.
// "incl. freed slots" is Classifier.MemBytes: the BDD node store's slot
// capacity, slots GC freed after the ACL, atom and tree work included,
// plus the tree; "live" counts only reachable nodes — the number
// comparable to the paper's JDD measurements.
func (e *Env) MemoryUsage() *Table {
	t := &Table{
		Title:  "§VII-B — memory usage of AP Classifier (all components)",
		Header: []string{"network", "BDD+tree incl. freed slots (MB)", "live BDD+tree (MB)", "predicates", "atoms"},
		Notes:  []string{"paper: Internet2 4.79 MB, Stanford 2.15 MB at full scale (live)"},
	}
	for _, name := range e.networks() {
		c, _ := e.network(name)
		tree := c.Manager.Tree()
		live := c.Manager.DD().LiveMemBytes() +
			tree.NumLeaves()*(64+(tree.NumPreds()+7)/8) +
			(tree.NumLeaves()-1)*64
		t.AddRow(name,
			fmt.Sprintf("%.2f", float64(c.MemBytes())/1e6),
			fmt.Sprintf("%.2f", float64(live)/1e6),
			fmt.Sprint(c.NumPredicates()),
			fmt.Sprint(c.NumAtoms()))
	}
	return t
}

// Fig11 reproduces Fig. 11: overall construction time (atom computation +
// tree construction) per method.
func (e *Env) Fig11(nRandom int) *Table {
	t := &Table{
		Title:  "Fig 11 — overall construction time (atoms + tree)",
		Header: []string{"network", "random (one)", "quick-ordering", "OAPT"},
		Notes:  []string{"paper: Internet2 201/204 ms, Stanford 293/343 ms (Quick/OAPT)"},
	}
	for _, name := range e.networks() {
		c, _ := e.network(name)
		timeMethod := func(m aptree.Method) time.Duration {
			start := time.Now()
			in := c.TreeInput() // includes atom computation, as in the paper
			in.Rand = rand.New(rand.NewSource(11))
			tr := aptree.Build(in, m)
			d := time.Since(start)
			tr.Drop()
			return d
		}
		t.AddRow(name,
			timeMethod(aptree.MethodRandom).Round(10*time.Microsecond).String(),
			timeMethod(aptree.MethodQuick).Round(10*time.Microsecond).String(),
			timeMethod(aptree.MethodOAPT).Round(10*time.Microsecond).String())
	}
	return t
}

// Fig12 reproduces Fig. 12: query throughput for static networks across
// AP Classifier variants and baselines (Hassel/HSA, AP Verifier linear
// search, Forwarding Simulation).
func (e *Env) Fig12(nRandom, traceLen int, minDur time.Duration) *Table {
	t := &Table{
		Title:  "Fig 12 — query throughput for static networks",
		Header: []string{"network", "method", "throughput (Mqps)", "avg work/query"},
		Notes: []string{
			"paper: AP Classifier 3.4 (I2) / 1.8 (SF) Mqps; Hassel-C 0.006 / 0.0047; Forwarding Simulation 0.2 / 0.16",
			"work/query: predicates evaluated (tree methods & FwdSim & PScan), atoms scanned (APLinear), ternary rule checks (HSA)",
		},
	}
	for _, name := range e.networks() {
		c, ds := e.network(name)
		in := e.treeInput(name)
		rng := rand.New(rand.NewSource(12))
		trace := uniformTrace(in, ds.Layout.Bytes(), traceLen, rng)
		ingresses := make([]int, len(trace))
		for i := range ingresses {
			ingresses[i] = rng.Intn(len(ds.Boxes))
		}

		best, quick, oapt := buildThree(in, nRandom)
		for _, row := range []struct {
			label string
			tree  *aptree.Tree
		}{{"AP Classifier (OAPT)", oapt}, {"Quick-Ordering", quick}, {"Best from Random", best}} {
			tree := row.tree
			q := measureQPS(func(p []byte) { tree.Classify(p) }, trace, minDur)
			t.AddRow(name, row.label, mqps(q), fmt.Sprintf("%.1f preds", tree.AverageDepth()))
		}

		// APLinear: linear scan over atom BDDs.
		ap := &baseline.APLinear{D: in.D, Atoms: in.Atoms}
		q := measureQPS(func(p []byte) { ap.Classify(p) }, trace, minDur)
		t.AddRow(name, "AP Verifier (APLinear)", mqps(q), fmt.Sprintf("%.1f atoms", float64(in.Atoms.N())/2))

		// PScan: evaluate every predicate.
		ids := c.Manager.LiveIDs()
		prefs := make([]bdd.Ref, len(ids))
		for i, id := range ids {
			prefs[i] = c.Manager.Ref(id)
		}
		ps := baseline.NewPScan(in.D, ids, prefs, c.Manager.Tree().NumPreds())
		q = measureQPS(func(p []byte) { ps.Member(p) }, trace, minDur)
		t.AddRow(name, "PScan", mqps(q), fmt.Sprintf("%d preds", len(ids)))

		// Forwarding Simulation: per-box linear predicate checks, hop by hop.
		sim := baseline.ManagerEnv(c.Manager, c.Net)
		var fsChecks, fsQueries int
		i := 0
		q = measureQPS(func(p []byte) {
			r := sim.Behavior(ingresses[i%len(ingresses)], p)
			fsChecks += r.PredChecks
			fsQueries++
			i++
		}, trace, minDur)
		t.AddRow(name, "Forwarding Simulation", mqps(q), fmt.Sprintf("%.1f preds", float64(fsChecks)/float64(fsQueries)))

		// Veriflow-style trie: network-wide rule trie + path simulation
		// (the related-work approach the paper discusses).
		tsim := trie.NewSim(ds)
		fieldsTrace := make([]ruleFields, len(trace))
		{
			frng := rand.New(rand.NewSource(1212))
			for i := range fieldsTrace {
				fieldsTrace[i] = ds.RandomFields(frng)
			}
		}
		var trWork, trQueries int
		i = 0
		q = measureQPS(func(p []byte) {
			r := tsim.Behavior(ingresses[i%len(ingresses)], fieldsTrace[i%len(fieldsTrace)])
			trWork += r.RulesCollected
			trQueries++
			i++
		}, trace, minDur)
		t.AddRow(name, "Veriflow trie", mqps(q), fmt.Sprintf("%.0f rules", float64(trWork)/float64(trQueries)))

		// HSA (Hassel stand-in): full behavior identification by
		// header-space propagation. Far slower; measure fewer iterations.
		hnet := hsa.Compile(ds)
		var hChecks, hQueries int
		i = 0
		q = measureQPS(func(p []byte) {
			r := hnet.Reach(ingresses[i%len(ingresses)], p)
			hChecks += r.RuleChecks
			hQueries++
			i++
		}, trace[:min(64, len(trace))], minDur)
		t.AddRow(name, "HSA (Hassel)", mqps(q), fmt.Sprintf("%.0f rules", float64(hChecks)/float64(hQueries)))

		best.Drop()
		quick.Drop()
		oapt.Drop()
	}
	return t
}

// Percentile helper for depth/time distributions.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func sortedDurations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	sort.Float64s(out)
	return out
}
