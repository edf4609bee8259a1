package network_test

import (
	"testing"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/netgen"
)

// TestWarmWalkerDoesNotAllocate pins the Walker's scratch contract on a
// multi-hop path: once its queue, visited set and behavior slices have
// grown to the longest walk, a reused Walker computes further walks
// without allocating. (The BFS used to pop with queue = queue[1:], which
// handed the scratch slice back with its capacity eaten from the front, so
// nearly every walk regrew it.)
func TestWarmWalkerDoesNotAllocate(t *testing.T) {
	ds := netgen.FatTree(netgen.FatTreeSmall)
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Manager.Snapshot()
	w := c.NewWalker()

	// An edge-to-edge path across pods: edge → agg → core → agg → edge →
	// host. Walking every atom first also warms the scratch.
	first, last := ds.Hosts[0], ds.Hosts[len(ds.Hosts)-1]
	var leaf *aptree.Node
	view := snap.Atoms()
	view.Each(func(atom int32) bool {
		b := w.Behavior(snap, first.Box, nil, view.Leaf(atom))
		if b.Delivered(last.Name) && len(b.Edges) >= 5 {
			leaf = view.Leaf(atom)
		}
		return true
	})
	if leaf == nil {
		t.Fatalf("no atom walks ≥ 5 edges from %s to %s", c.Net.Boxes[first.Box].Name, last.Name)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		w.Behavior(snap, first.Box, nil, leaf)
	}); allocs != 0 {
		t.Fatalf("warmed Walker allocated %.1f times per walk, want 0", allocs)
	}
}
