package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// Batched queries. A batch runs the same two stages as a single query but
// amortizes both: stage 1 classifies the whole batch in one group-by-
// branch descent (duplicate headers collapse to one search), and stage 2
// walks each distinct (ingress, atom) pair once — the epoch's memo
// answers every later packet of a deterministic class, within the batch
// as across batches. The single-packet path is a thin wrapper over the
// same pipeline (behaviorVia), so there is no second code path to keep
// correct; TestBatchMatchesSingle holds the two entry points element-wise
// identical.

// BatchBuffer holds the reusable scratch of the batch pipeline: stage-1
// index buffers, the leaf and result slices and a stage-2 Walker.
// Steady-state batches of a stable size allocate only for memo-miss walk
// results. A BatchBuffer is bound to the classifier that created it and
// is not safe for concurrent use; pool one per goroutine (the HTTP server
// keeps a sync.Pool).
type BatchBuffer struct {
	sc     aptree.BatchScratch
	leaves []*aptree.Node
	out    []*network.Behavior
	w      *network.Walker
}

// NewBatchBuffer returns batch scratch space bound to this classifier.
func (c *Classifier) NewBatchBuffer() *BatchBuffer {
	return &BatchBuffer{w: network.NewWalker(c.Net)}
}

// ClassifyBatch runs stage 1 for the whole batch against the pinned
// epoch, returning one leaf per packet. The returned slice is owned by
// buf and valid until its next use; pass it straight to
// BehaviorBatchFrom.
func (s *Snapshot) ClassifyBatch(buf *BatchBuffer, pkts [][]byte) []*aptree.Node {
	if cap(buf.leaves) < len(pkts) {
		buf.leaves = make([]*aptree.Node, len(pkts))
	}
	buf.leaves = buf.leaves[:len(pkts)]
	s.s.ClassifyBatchWith(&buf.sc, pkts, buf.leaves)
	return buf.leaves
}

// BehaviorBatchFrom runs stage 2 for a batch whose leaves the caller
// already obtained from ClassifyBatch on this same snapshot (the staged
// form the HTTP server uses to time the stages separately). ingress[i] is
// packet i's entry box. The returned slice is owned by buf and valid
// until its next use; the behaviors themselves are read-only but remain
// valid indefinitely.
func (s *Snapshot) BehaviorBatchFrom(buf *BatchBuffer, ingress []int, pkts [][]byte, leaves []*aptree.Node) []*network.Behavior {
	if len(ingress) != len(pkts) || len(leaves) != len(pkts) {
		panic(fmt.Sprintf("apclassifier: BehaviorBatchFrom length mismatch: %d ingresses, %d packets, %d leaves",
			len(ingress), len(pkts), len(leaves)))
	}
	if cap(buf.out) < len(pkts) {
		buf.out = make([]*network.Behavior, 0, len(pkts))
	}
	out := buf.out[:0]
	for i := range pkts {
		// A Type-2/Type-3 walk is not memoized, so it is recomputed for
		// every packet even inside one batch (§V-E).
		out = append(out, s.c.behaviorVia(buf.w, s.s, ingress[i], pkts[i], leaves[i], true))
	}
	buf.out = out
	return out
}

// BehaviorBatch answers every (ingress[i], pkts[i]) query against the
// pinned epoch: ClassifyBatch followed by BehaviorBatchFrom. Results are
// element-wise identical to calling Behavior per packet — including
// per-atom visit statistics — but tree descents, cache lookups and
// topology walks are shared across the batch. The returned slice is owned
// by buf and valid until its next use.
func (s *Snapshot) BehaviorBatch(buf *BatchBuffer, ingress []int, pkts [][]byte) []*network.Behavior {
	leaves := s.ClassifyBatch(buf, pkts)
	return s.BehaviorBatchFrom(buf, ingress, pkts, leaves)
}
