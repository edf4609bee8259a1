package aptree

import (
	"bytes"
	"slices"

	"apclassifier/internal/bdd"
)

// Batched stage-1 classification. A batch descends the tree as groups of
// packets, not one packet at a time:
//
//   - Exact-duplicate headers are collapsed first (production traffic
//     arrives in flow bursts, so a batch window usually holds far fewer
//     distinct headers than packets — the representative-header-set
//     collapse of Boufkhad et al.). Each distinct header is classified
//     once and its leaf fanned back out to every duplicate.
//   - The distinct headers then descend by group-by-branch: at each tree
//     node the group is partitioned by one membership decision per
//     packet, but the node — its predicate ref, its BDD root, its child
//     pointers — is visited once per group, so tree-node and cache-line
//     costs are amortized across the batch.
//
// Visit counters are bumped once per leaf group with the group's total
// packet count (duplicates included), so the §V-D distribution statistics
// are identical to classifying the batch packet by packet.

// evaluator abstracts the BDD evaluation backend a descent runs against:
// a frozen epoch view (Snapshot.ClassifyBatchPointerWith) or, in the
// tree-level batch tests, the live DD.
type evaluator interface {
	EvalBits(f bdd.Ref, bits []byte) bool
}

// BatchScratch holds the reusable index buffers of a batched descent.
// The zero value is ready to use; buffers grow to the largest batch seen
// and are retained, so steady-state batches of a fixed size allocate
// nothing. A BatchScratch is not safe for concurrent use.
type BatchScratch struct {
	order  []int32 // packet indices sorted by header bytes
	idx    []int32 // distinct-header representatives, permuted by the descent
	tmp    []int32 // partition spill buffer, same length as idx
	weight []int32 // weight[i]: packets collapsed onto representative i
}

// prepare sizes the buffers for an n-packet batch.
func (sc *BatchScratch) prepare(n int) {
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
		sc.idx = make([]int32, n)
		sc.tmp = make([]int32, n)
		sc.weight = make([]int32, n)
	}
	sc.order = sc.order[:n]
	sc.idx = sc.idx[:0]
	sc.tmp = sc.tmp[:n]
	sc.weight = sc.weight[:n]
}

// classifyBatch is the shared batch pipeline around any descent engine:
// collapse duplicate headers, hand the distinct representatives to search —
// which descends them and writes their leaves into out — then fan each
// representative's leaf back out to its duplicates. Both the pointer and
// the flat engine plug in through search, so the collapse and fanout logic
// (and its duplicate-weight accounting) exists exactly once.
func classifyBatch(sc *BatchScratch, pkts [][]byte, out []*Node, search func(idx, tmp, weight []int32)) {
	if len(out) < len(pkts) {
		panic("aptree: ClassifyBatch output slice shorter than the batch")
	}
	if len(pkts) == 0 {
		return
	}
	sc.prepare(len(pkts))
	for i := range sc.order {
		sc.order[i] = int32(i)
	}
	slices.SortFunc(sc.order, func(a, b int32) int {
		return bytes.Compare(pkts[a], pkts[b])
	})
	// Runs of equal headers collapse to one representative with a count.
	for k := 0; k < len(sc.order); {
		rep := sc.order[k]
		run := int32(1)
		for k+int(run) < len(sc.order) && bytes.Equal(pkts[sc.order[k+int(run)]], pkts[rep]) {
			run++
		}
		sc.idx = append(sc.idx, rep)
		sc.weight[rep] = run
		k += int(run)
	}
	search(sc.idx, sc.tmp, sc.weight)
	// Fan each representative's leaf out to its duplicates: equal headers
	// are adjacent in order, so one linear pass suffices.
	rep := sc.order[0]
	for _, i := range sc.order[1:] {
		if bytes.Equal(pkts[i], pkts[rep]) {
			out[i] = out[rep]
		} else {
			rep = i
		}
	}
}

// descend classifies the packet group idx by group-by-branch descent from
// n, writing each packet's leaf into out. idx is permuted in place; tmp is
// a spill buffer at least as long. visit is called once per leaf group
// with the group's total packet weight.
func descend(ev evaluator, preds []bdd.Ref, n *Node, pkts [][]byte, idx, tmp []int32, weight []int32, out []*Node, visit func(atom int32, w uint64)) {
	for !n.IsLeaf() {
		p := preds[n.Pred]
		nt, nf := 0, 0
		for k := 0; k < len(idx); k++ {
			i := idx[k]
			if ev.EvalBits(p, pkts[i]) {
				idx[nt] = i // nt <= k: never overtakes the read cursor
				nt++
			} else {
				tmp[nf] = i
				nf++
			}
		}
		copy(idx[nt:], tmp[:nf])
		switch {
		case nf == 0:
			n = n.T
		case nt == 0:
			n = n.F
		default:
			descend(ev, preds, n.T, pkts, idx[:nt], tmp, weight, out, visit)
			descend(ev, preds, n.F, pkts, idx[nt:], tmp, weight, out, visit)
			return
		}
	}
	var w uint64
	for _, i := range idx {
		out[i] = n
		w += uint64(weight[i])
	}
	if visit != nil {
		visit(n.AtomID, w)
	}
}

// ClassifyBatchWith is the epoch-pinned batch search with caller-owned
// scratch, the allocation-free form used by the facade's batch pipeline.
// Like single-packet Classify it descends the epoch's compiled flat core.
func (s *Snapshot) ClassifyBatchWith(sc *BatchScratch, pkts [][]byte, out []*Node) {
	visit := func(atom int32, w uint64) { s.visits.addN(atom, w) }
	s.debugCheckFlat()
	f := s.flat
	classifyBatch(sc, pkts, out, func(idx, tmp, weight []int32) {
		f.descend(f.root, pkts, idx, tmp, weight, out, visit)
	})
}

// ClassifyBatchPointerWith is ClassifyBatchWith over the pointer tree,
// with no visit accounting — the batched reference the differential
// suite compares the flat descent against.
func (s *Snapshot) ClassifyBatchPointerWith(sc *BatchScratch, pkts [][]byte, out []*Node) {
	classifyBatch(sc, pkts, out, func(idx, tmp, weight []int32) {
		descend(s.view, s.tree.preds, s.tree.root, pkts, idx, tmp, weight, out, nil)
	})
}
