package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

func TestBuildOptimalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 20; trial++ {
		d := bdd.New(12)
		preds := randomPrefixPreds(d, 6+rng.Intn(3), 12, rng)
		in := buildInput(d, preds, rng)
		opt := BuildOptimal(in)
		if err := opt.Validate(in.Live); err != nil {
			t.Fatalf("trial %d: optimal tree invalid: %v", trial, err)
		}
		rsets := make([][]int32, len(preds))
		for i := range rsets {
			rsets[i] = atomsR(in.Atoms, i)
		}
		all := make([]int32, in.Atoms.N())
		for i := range all {
			all[i] = int32(i)
		}
		want := optimalSumDepth(rsets, all) // the independent test oracle
		if got := opt.SumDepth(); got != want {
			t.Fatalf("trial %d: BuildOptimal depth %d, oracle %d", trial, got, want)
		}
		// Optimality: no other method may beat it.
		for _, m := range []Method{MethodOAPT, MethodQuick} {
			other := Build(in, m)
			if other.SumDepth() < opt.SumDepth() {
				t.Fatalf("trial %d: %v beat the optimum", trial, m)
			}
			other.Drop()
		}
		checkClassification(t, opt, d, preds, in.Live, 2, rng, 100)
		opt.Drop()
	}
}

func TestBuildOptimalOnPaperExample(t *testing.T) {
	d := bdd.New(8)
	preds := paperFig1(d)
	rng := rand.New(rand.NewSource(0))
	in := buildInput(d, preds, rng)
	opt := BuildOptimal(in)
	if got := opt.AverageDepth(); got != 2.4 {
		t.Fatalf("optimal average depth = %v, want 2.4 (Fig 2(c))", got)
	}
}

func TestBuildOptimalRejectsLargeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	d := bdd.New(32)
	preds := randomPrefixPreds(d, MaxOptimalPreds+1, 32, rng)
	in := buildInput(d, preds, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized input must panic")
		}
	}()
	BuildOptimal(in)
}

// TestOAPTOptimalityGap quantifies how close the heuristic gets — the
// number the paper never reports.
func TestOAPTOptimalityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	totOpt, totOAPT := 0, 0
	for trial := 0; trial < 15; trial++ {
		d := bdd.New(12)
		preds := randomPrefixPreds(d, 8, 12, rng)
		in := buildInput(d, preds, rng)
		opt := BuildOptimal(in)
		oapt := Build(in, MethodOAPT)
		totOpt += opt.SumDepth()
		totOAPT += oapt.SumDepth()
		opt.Drop()
		oapt.Drop()
	}
	gap := float64(totOAPT)/float64(totOpt) - 1
	t.Logf("OAPT optimality gap over 15 random 8-predicate inputs: %.1f%%", gap*100)
	if gap > 0.30 {
		t.Fatalf("OAPT gap %.1f%% is suspiciously large", gap*100)
	}
	if gap < 0 {
		t.Fatal("heuristic cannot beat the optimum")
	}
}
