package aptree

import (
	"fmt"
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// buildInput computes atoms for preds and assembles a Build input.
func buildInput(d *bdd.DD, preds []bdd.Ref, rng *rand.Rand) Input {
	live := make([]int32, len(preds))
	for i := range live {
		live[i] = int32(i)
	}
	return Input{
		D:     d,
		Preds: preds,
		Live:  live,
		Atoms: predicate.Compute(d, preds),
		Rand:  rng,
	}
}

// randomPrefixPreds builds k random prefix predicates over nbits header bits.
func randomPrefixPreds(d *bdd.DD, k, nbits int, rng *rand.Rand) []bdd.Ref {
	preds := make([]bdd.Ref, k)
	for i := range preds {
		length := 1 + rng.Intn(nbits/2)
		preds[i] = d.FromPrefix(0, uint64(rng.Uint32())<<32>>uint(64-nbits), length, nbits)
		d.Retain(preds[i])
	}
	return preds
}

// checkClassification verifies the fundamental spec: for any packet, the
// leaf's membership bit for every predicate equals direct BDD evaluation.
func checkClassification(t *testing.T, tree *Tree, d *bdd.DD, preds []bdd.Ref, live []int32, nbytes int, rng *rand.Rand, probes int) {
	t.Helper()
	for i := 0; i < probes; i++ {
		pkt := make([]byte, nbytes)
		rng.Read(pkt)
		leaf := tree.Classify(pkt)
		if !leaf.IsLeaf() {
			t.Fatal("Classify returned non-leaf")
		}
		if !d.EvalBits(leaf.BDD, pkt) {
			t.Fatalf("probe %d: packet not in its leaf's atom", i)
		}
		for _, id := range live {
			want := d.EvalBits(preds[id], pkt)
			if got := leaf.Member.Get(int(id)); got != want {
				t.Fatalf("probe %d: membership bit %d = %v, eval = %v", i, id, got, want)
			}
		}
	}
}

func TestBuildMethodsAllValidAndCorrect(t *testing.T) {
	for _, method := range []Method{MethodOrder, MethodRandom, MethodQuick, MethodOAPT} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			d := bdd.New(16)
			preds := randomPrefixPreds(d, 20, 16, rng)
			in := buildInput(d, preds, rng)
			tree := Build(in, method)
			if tree.NumLeaves() != in.Atoms.N() {
				t.Fatalf("leaves = %d, atoms = %d", tree.NumLeaves(), in.Atoms.N())
			}
			if err := tree.Validate(in.Live); err != nil {
				t.Fatal(err)
			}
			checkClassification(t, tree, d, preds, in.Live, 2, rng, 400)
		})
	}
}

func TestClassifyAgreesWithLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 25, 16, rng)
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)
	for i := 0; i < 1000; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		leaf := tree.Classify(pkt)
		want := in.Atoms.ClassifyLinear(pkt)
		if int(leaf.AtomID) != want {
			t.Fatalf("tree atom %d, linear atom %d", leaf.AtomID, want)
		}
	}
}

// Fig. 1 of the paper: three predicates over a toy header space with
// p1 disjoint from p2 and p3, and p2 ∧ p3 ≠ ∅, giving atoms a1..a5.
// Fig. 2 shows the pruned tree in order (p1,p2,p3) has average depth 2.6
// and the optimized order (p2,p3,p1) achieves 2.4.
func paperFig1(d *bdd.DD) []bdd.Ref {
	p1 := d.FromPrefix(0, 0b00000000, 2, 8)                                          // 00******
	p2 := d.Or(d.FromPrefix(0, 0b01000000, 2, 8), d.FromPrefix(0, 0b10000000, 2, 8)) // 01|10
	p3 := d.Or(d.FromPrefix(0, 0b10000000, 2, 8), d.FromPrefix(0, 0b11000000, 3, 8)) // 10|110
	return []bdd.Ref{p1, p2, p3}
}

func TestPaperFig2Depths(t *testing.T) {
	d := bdd.New(8)
	preds := paperFig1(d)
	rng := rand.New(rand.NewSource(0))
	in := buildInput(d, preds, rng)
	if in.Atoms.N() != 5 {
		t.Fatalf("Fig 1 has 5 atoms, got %d", in.Atoms.N())
	}
	// Order p1,p2,p3 — the pruned tree of Fig 2(b): average depth 2.6.
	tb := Build(in, MethodOrder)
	if got := tb.AverageDepth(); got != 2.6 {
		t.Fatalf("Fig 2(b) average depth = %v, want 2.6", got)
	}
	// Order p2,p3,p1 — Fig 2(c): average depth 2.4.
	in2 := in
	in2.Live = []int32{1, 2, 0}
	tc := Build(in2, MethodOrder)
	if got := tc.AverageDepth(); got != 2.4 {
		t.Fatalf("Fig 2(c) average depth = %v, want 2.4", got)
	}
	// OAPT must find a 2.4 tree (the optimum for this example).
	topt := Build(in, MethodOAPT)
	if got := topt.AverageDepth(); got != 2.4 {
		t.Fatalf("OAPT average depth = %v, want 2.4", got)
	}
	// Quick-Ordering sorts by |R|: |R(p2)|=2,|R(p3)|=2,|R(p1)|=1 → also 2.4.
	tq := Build(in, MethodQuick)
	if got := tq.AverageDepth(); got != 2.4 {
		t.Fatalf("Quick-Ordering average depth = %v, want 2.4", got)
	}
}

// intersect and subtract are sorted-slice set ops kept test-local so the
// optimalSumDepth oracle stays independent of the AtomSet representation
// the builder uses.
func intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func subtract(a, b []int32) []int32 {
	var out []int32
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// setIDs lists an AtomSet's members in ascending order.
func setIDs(s predicate.AtomSet) []int32 {
	var ids []int32
	s.Each(func(id int32) bool { ids = append(ids, id); return true })
	return ids
}

// atomsR returns R(p_j), the sorted IDs of the atoms implying predicate j,
// as the plain slice optimalSumDepth works on.
func atomsR(a *predicate.Atoms, j int) []int32 {
	var r []int32
	for i, m := range a.Member {
		if m.Get(j) {
			r = append(r, int32(i))
		}
	}
	return r
}

// optimalSumDepth is the exact recursion of equation (1), memoized — the
// oracle the OAPT heuristic approximates.
func optimalSumDepth(rsets [][]int32, s []int32) int {
	memo := make(map[string]int)
	var f func(qmask uint32, s []int32) int
	key := func(qmask uint32, s []int32) string { return fmt.Sprint(qmask, s) }
	f = func(qmask uint32, s []int32) int {
		if len(s) == 1 {
			return 0
		}
		k := key(qmask, s)
		if v, ok := memo[k]; ok {
			return v
		}
		best := -1
		for p := 0; p < len(rsets); p++ {
			if qmask&(1<<uint(p)) == 0 {
				continue
			}
			st := intersect(s, rsets[p])
			if len(st) == 0 || len(st) == len(s) {
				continue
			}
			sf := subtract(s, rsets[p])
			q2 := qmask &^ (1 << uint(p))
			v := f(q2, st) + f(q2, sf) + len(s)
			if best < 0 || v < best {
				best = v
			}
		}
		if best < 0 {
			panic("indistinguishable atoms")
		}
		memo[k] = best
		return best
	}
	all := uint32(1)<<uint(len(rsets)) - 1
	return f(all, s)
}

func TestOAPTNeverBeatsExactOptimumAndIsClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	totalOpt, totalOAPT, totalQuick := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		d := bdd.New(12)
		preds := randomPrefixPreds(d, 7, 12, rng)
		in := buildInput(d, preds, rng)
		rsets := make([][]int32, len(preds))
		for i := range rsets {
			rsets[i] = atomsR(in.Atoms, i)
		}
		all := make([]int32, in.Atoms.N())
		for i := range all {
			all[i] = int32(i)
		}
		opt := optimalSumDepth(rsets, all)
		oapt := Build(in, MethodOAPT).SumDepth()
		quick := Build(in, MethodQuick).SumDepth()
		if oapt < opt {
			t.Fatalf("trial %d: heuristic %d beat the optimum %d — oracle or tree is wrong", trial, oapt, opt)
		}
		totalOpt += opt
		totalOAPT += oapt
		totalQuick += quick
	}
	if totalOAPT > totalQuick {
		t.Errorf("across trials OAPT (%d) should not be worse than Quick-Ordering (%d)", totalOAPT, totalQuick)
	}
	if float64(totalOAPT) > 1.25*float64(totalOpt) {
		t.Errorf("OAPT total %d is more than 25%% above optimal %d", totalOAPT, totalOpt)
	}
}

func TestOAPTBeatsRandomOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := bdd.New(20)
	preds := randomPrefixPreds(d, 30, 20, rng)
	in := buildInput(d, preds, rng)
	oapt := Build(in, MethodOAPT).AverageDepth()
	sum := 0.0
	const n = 20
	for i := 0; i < n; i++ {
		in.Rand = rand.New(rand.NewSource(int64(100 + i)))
		sum += Build(in, MethodRandom).AverageDepth()
	}
	if avg := sum / n; oapt >= avg {
		t.Fatalf("OAPT depth %.2f not better than mean random depth %.2f", oapt, avg)
	}
}

func TestNoSplitFilterAblationIsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 18, 16, rng)
	in := buildInput(d, preds, rng)
	a := Build(in, MethodOAPT)
	in.NoSplitFilter = true
	b := Build(in, MethodOAPT)
	if a.SumDepth() != b.SumDepth() || a.NumLeaves() != b.NumLeaves() {
		t.Fatalf("filter changed the result: %d/%d vs %d/%d",
			a.SumDepth(), a.NumLeaves(), b.SumDepth(), b.NumLeaves())
	}
}

func TestWeightedBuildMovesHotAtomsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 22, 16, rng)
	in := buildInput(d, preds, rng)
	uniform := Build(in, MethodOAPT)

	// Make a few atoms very hot.
	weights := make([]float64, in.Atoms.N())
	for i := range weights {
		weights[i] = 1
	}
	hot := map[int32]bool{}
	for i := 0; i < 3 && i < in.Atoms.N(); i++ {
		a := int32(rng.Intn(in.Atoms.N()))
		weights[a] = 1000
		hot[a] = true
	}
	in.Weights = weights
	weighted := Build(in, MethodOAPT)
	if err := weighted.Validate(in.Live); err != nil {
		t.Fatal(err)
	}
	wf := func(a int32) float64 { return weights[a] }
	uw, ww := uniform.WeightedAverageDepth(wf), weighted.WeightedAverageDepth(wf)
	if ww > uw {
		t.Fatalf("weighted build has worse weighted depth (%.3f) than uniform (%.3f)", ww, uw)
	}
}

func TestDepthHistogramAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 15, 16, rng)
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)
	h := tree.DepthHistogram()
	total, sum := 0, 0
	for depth, c := range h {
		total += c
		sum += depth * c
	}
	if total != tree.NumLeaves() {
		t.Fatalf("histogram total %d != leaves %d", total, tree.NumLeaves())
	}
	if sum != tree.SumDepth() {
		t.Fatalf("histogram sum %d != SumDepth %d", sum, tree.SumDepth())
	}
	if tree.MaxDepth() != len(h)-1 {
		t.Fatalf("MaxDepth %d != histogram top %d", tree.MaxDepth(), len(h)-1)
	}
	if tree.MaxDepth() > len(preds) {
		t.Fatal("depth cannot exceed predicate count")
	}
}

// Visits returns leaf n's query counter (the sum over counter stripes).
func (t *Tree) Visits(n *Node) uint64 { return t.visits.view().count(n.AtomID) }

func TestVisitCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := bdd.New(16)
	preds := randomPrefixPreds(d, 10, 16, rng)
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)
	const q = 500
	for i := 0; i < q; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		tree.Classify(pkt)
	}
	var total uint64
	tree.Leaves(func(n *Node) { total += tree.Visits(n) })
	if total != q {
		t.Fatalf("visit total %d, want %d", total, q)
	}
	// One more search moves exactly its own leaf's counter, by one.
	leaf := tree.Classify([]byte{0, 0})
	var after uint64
	tree.Leaves(func(n *Node) { after += tree.Visits(n) })
	if after != total+1 {
		t.Fatalf("visit total %d after one more search, want %d", after, total+1)
	}
	if before := tree.Visits(leaf); tree.Classify([]byte{0, 0}) != leaf || tree.Visits(leaf) != before+1 {
		t.Fatal("a search must count one visit on the leaf it returns")
	}
}

func TestEmptyPredicateSet(t *testing.T) {
	d := bdd.New(8)
	in := Input{D: d, Atoms: predicate.Compute(d, nil)}
	tree := Build(in, MethodOrder)
	if tree.NumLeaves() != 1 || !tree.Root().IsLeaf() {
		t.Fatal("empty predicate set must give a single-leaf tree")
	}
	leaf := tree.Classify([]byte{0xAB})
	if leaf.AtomID != 0 {
		t.Fatal("everything classifies to atom 0")
	}
}

func TestSetHelpers(t *testing.T) {
	a := predicate.AtomSetOf(1, 3, 5, 7, 9)
	b := predicate.AtomSetOf(3, 4, 5, 10)
	if got := setIDs(a.Intersect(b)); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.IntersectLen(b); got != 2 {
		t.Fatalf("IntersectLen = %d", got)
	}
	if got := setIDs(a.Diff(b)); len(got) != 3 || got[0] != 1 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Diff = %v", got)
	}
	if got := predicate.EmptyAtomSet.Intersect(b); !got.Empty() {
		t.Fatalf("Intersect(empty) = %v", got)
	}
	if got := a.Diff(predicate.EmptyAtomSet); got.Len() != a.Len() {
		t.Fatalf("Diff(empty) = %v", got)
	}
}

func TestSuperiorRelationAcyclicOnRandomSets(t *testing.T) {
	// The paper proves the superior/inferior relation acyclic by
	// exhaustion; spot-check no 3-cycle arises on random candidate sets.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		d := bdd.New(10)
		preds := randomPrefixPreds(d, 3, 10, rng)
		in := buildInput(d, preds, rng)
		b := &builder{in: in, t: &Tree{D: d}}
		all := predicate.AtomRange(0, int32(in.Atoms.N()))
		r := make([]predicate.AtomSet, 3)
		for i := range r {
			r[i] = all.Intersect(in.Atoms.RSet(i))
		}
		s01 := b.superior(r[0], r[1], all)
		s12 := b.superior(r[1], r[2], all)
		s20 := b.superior(r[2], r[0], all)
		if s01 < 0 && s12 < 0 && s20 < 0 {
			t.Fatalf("trial %d: superior cycle p0→p1→p2→p0", trial)
		}
		if s01 > 0 && s12 > 0 && s20 > 0 {
			t.Fatalf("trial %d: inferior cycle", trial)
		}
	}
}
