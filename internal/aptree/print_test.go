package aptree

import (
	"math/rand"
	"strings"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

func TestFprintAndDOT(t *testing.T) {
	d := bdd.New(8)
	preds := paperFig1(d)
	rng := rand.New(rand.NewSource(0))
	in := buildInput(d, preds, rng)
	tree := Build(in, MethodOAPT)

	s := tree.String()
	if !strings.Contains(s, "p1?") || !strings.Contains(s, "atom ") {
		t.Fatalf("String rendering incomplete:\n%s", s)
	}
	// Exactly one line per node: leaves + internal.
	lines := strings.Count(s, "\n")
	wantLines := tree.NumLeaves()*2 - 1 // full binary tree node count
	if lines != wantLines {
		t.Fatalf("rendered %d lines, want %d:\n%s", lines, wantLines, s)
	}
}

func TestFprintSingleLeaf(t *testing.T) {
	d := bdd.New(8)
	in := Input{D: d, Atoms: predicate.Compute(d, nil)}
	tree := Build(in, MethodOrder)
	if got := tree.String(); !strings.HasPrefix(got, "atom 0") {
		t.Fatalf("single-leaf rendering = %q", got)
	}
}
