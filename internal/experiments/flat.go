package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"apclassifier/internal/aptree"
)

// flatBatch is the batch size the flat experiment drives both group-by-
// branch descents at — the batch size bench/'s query workloads use.
const flatBatch = 256

// FlatVsPointer measures stage 1 alone: the compiled flat classify core
// against the pointer descent of the same published epoch, single-packet
// and batched, over a uniform atom-sampled trace on both networks. The
// lowering mix columns say how much of each tree the compiler got out of
// the BDD (mask = minterm byte-compare, cube = union-of-rules cube list,
// bdd = frozen-view fallback) — the flat win tracks that mix.
func (e *Env) FlatVsPointer(traceLen int, minDur time.Duration) *Table {
	t := &Table{
		Title: "Flat classify core — compiled array engine vs pointer descent (Mqps)",
		Header: []string{"network", "nodes", "mask", "cube", "bdd",
			"flat", "pointer", "speedup", "batch flat", "batch ptr", "batch speedup"},
		Notes: []string{
			"single-packet: one stage-1 descent per query, visit accounting off on both engines",
			fmt.Sprintf("%d-packet batches through each engine's group-by-branch descent", flatBatch),
		},
	}
	for _, name := range e.networks() {
		c, ds := e.network(name)
		in := e.treeInput(name)
		rng := rand.New(rand.NewSource(240))
		pkts := uniformTrace(in, ds.Layout.Bytes(), traceLen, rng)

		s := c.Manager.Snapshot()
		f := s.Flat()
		st := f.Stats()
		flat := measureQPS(func(p []byte) { f.Classify(p) }, pkts, minDur)
		ptr := measureQPS(func(p []byte) { s.ClassifyPointer(p) }, pkts, minDur)

		sc := &aptree.BatchScratch{}
		out := make([]*aptree.Node, flatBatch)
		bflat := measureChunkQPS(pkts, flatBatch, minDur, func(chunk [][]byte) {
			s.ClassifyBatchWith(sc, chunk, out[:len(chunk)])
		})
		bptr := measureChunkQPS(pkts, flatBatch, minDur, func(chunk [][]byte) {
			s.ClassifyBatchPointerWith(sc, chunk, out[:len(chunk)])
		})

		t.AddRow(name, fmt.Sprint(st.Nodes), fmt.Sprint(st.MaskNodes),
			fmt.Sprint(st.CubeNodes), fmt.Sprint(st.FallbackNodes),
			mqps(flat), mqps(ptr), fmt.Sprintf("%.2fx", flat/ptr),
			mqps(bflat), mqps(bptr), fmt.Sprintf("%.2fx", bflat/bptr))
	}
	return t
}

// measureChunkQPS drives run over the trace in chunks of size for at least
// minDur and reports per-packet throughput.
func measureChunkQPS(pkts [][]byte, size int, minDur time.Duration, run func(chunk [][]byte)) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		for i := 0; i < len(pkts); i += size {
			end := min(i+size, len(pkts))
			run(pkts[i:end])
			n += end - i
		}
	}
	return float64(n) / time.Since(start).Seconds()
}
