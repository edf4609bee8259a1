package aptree

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Per-leaf visit counting feeds the distribution-aware rebuild (§V-D).
// It used to live in an atomic uint64 inside each leaf Node, which made
// every parallel query to a hot atom bounce one cache line between cores
// — the counter, not the tree search, became the stage-1 scaling limit.
//
// visitCounters replaces that with a store that is
//
//   - keyed by atom ID, not by leaf pointer, so counts survive the
//     persistent (copy-on-write) ReplacePredicate that replaces Node values;
//   - striped: each goroutine increments its own stripe of a counter,
//     eliminating write sharing between cores (reads sum the stripes);
//   - chunked: counters live in fixed-size chunks that never move once
//     allocated, so snapshots taken at different times all address the
//     same memory and a growth never invalidates a published view.
//
// Growth (appending chunks for new atom IDs) happens only under the
// manager's write lock; published snapshots hold a visitView — a copy of
// the chunk-pointer slice — so they never read the growing slice header.
const (
	visitChunkBits = 10
	visitChunkSize = 1 << visitChunkBits // atoms per chunk
)

// visitStripes is the number of independent counter stripes, a power of
// two sized to the machine.
var visitStripes = func() int {
	s := 1
	for s < runtime.NumCPU() && s < 64 {
		s <<= 1
	}
	return s
}()

// visitChunk holds visitChunkSize counters × visitStripes stripes,
// stripe-major: stripe s of atom a is at [s<<visitChunkBits | a&mask].
// Stripe-major layout keeps different goroutines' increments of the same
// atom on distant cache lines.
type visitChunk []uint64

// visitCounters is the growable store. Only the owner (a Tree lineage,
// serialized by the manager's write lock) may grow it.
type visitCounters struct {
	chunks []*visitChunk
}

func newVisitCounters(atoms int) *visitCounters {
	c := &visitCounters{}
	c.grow(atoms)
	return c
}

// grow ensures capacity for atom IDs < n. Existing chunks never move.
func (c *visitCounters) grow(n int) {
	for len(c.chunks)<<visitChunkBits < n {
		ch := make(visitChunk, visitStripes<<visitChunkBits)
		c.chunks = append(c.chunks, &ch)
	}
}

// view returns an immutable handle over the current chunks, safe to use
// concurrently with later grow calls (which may reallocate c.chunks).
func (c *visitCounters) view() visitView {
	return visitView{chunks: c.chunks[:len(c.chunks):len(c.chunks)]}
}

// add increments atom's counter on the calling goroutine's stripe.
func (c *visitCounters) add(atom int32) { c.view().add(atom) }

// visitView is the snapshot-side handle: a frozen chunk-pointer slice.
// The counters themselves are shared with the live store, so increments
// made through any view in the lineage are visible to the §V-D rebuild.
type visitView struct {
	chunks []*visitChunk
}

func (v visitView) add(atom int32) { v.addN(atom, 1) }

// addN adds n visits to atom's counter in one striped add — how batched
// classification charges a whole leaf group at once.
func (v visitView) addN(atom int32, n uint64) {
	ch := *v.chunks[atom>>visitChunkBits]
	i := stripeHint()<<visitChunkBits | int(atom)&(visitChunkSize-1)
	atomic.AddUint64(&ch[i], n)
}

func (v visitView) count(atom int32) uint64 {
	ch := *v.chunks[atom>>visitChunkBits]
	var n uint64
	for s := 0; s < visitStripes; s++ {
		n += atomic.LoadUint64(&ch[s<<visitChunkBits|int(atom)&(visitChunkSize-1)])
	}
	return n
}

// stripeHint derives a stripe index from the address of a stack variable.
// Goroutine stacks are distinct allocations, so concurrent classifiers
// land on different stripes with high probability; the hint only affects
// contention, never correctness. The obs package's striped counters use
// the same technique; like there, the pointer is only ever hashed, never
// converted back from uintptr.
func stripeHint() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p>>9 ^ p>>17) & uintptr(visitStripes-1))
}
