// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The package is the storage and logic substrate for every predicate in the
// AP Classifier: forwarding predicates, ACL predicates, atomic predicates and
// AP Tree node labels are all BDDs managed by a single DD instance. The
// design follows Bryant's classic formulation: a hash-consed unique table
// guarantees canonicity (two equivalent functions share one node), so
// equality of functions is equality of Refs.
//
// Variables are packet-header bits: variable 0 is the first (most
// significant) filtered bit of the header, matching the convention used by
// AP Verifier, so an IP prefix of length L becomes a conjunction of L
// literals and a chain of L BDD nodes.
//
// Concurrency: a DD is not safe for concurrent mutation. Read-only use
// (EvalBits) is safe from multiple goroutines as long as no operation
// that can allocate nodes runs concurrently. For readers that must overlap
// a writer, Freeze returns a View: an immutable evaluation view of the
// store's current prefix that stays valid while the writer appends,
// because the store is append-only between garbage collections (see
// View's safety model). The AP Classifier serializes all node-allocating
// work on its update path and publishes Views in epoch snapshots for the
// query path.
package bdd

import (
	"fmt"
	"math"
)

// Ref identifies a BDD node within its owning DD. Refs are stable across
// garbage collections (collection is non-moving) but are only meaningful
// together with the DD that produced them.
type Ref int32

// Terminal nodes. False and True are shared by every DD.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level int32 // variable index; numVars for terminals
	low   Ref   // child when the variable is 0
	high  Ref   // child when the variable is 1
}

// DD is a BDD manager: a node store, a unique table and operation caches for
// a fixed number of Boolean variables.
type DD struct {
	numVars int
	nodes   []node
	// next chains nodes within a unique-table bucket; parallel to nodes.
	next    []Ref
	buckets []Ref
	mask    uint32
	free    []Ref
	live    int // number of live (allocated, not freed) nodes incl. terminals

	cache opCache

	// roots maps externally retained nodes to their retain count. Only
	// nodes reachable from roots survive GC.
	roots map[Ref]int

	ops uint64 // statistics: number of apply steps performed

	// stats holds the remaining work counters (see Stats); published is
	// the watermark of what PublishStats already flushed to obs.
	stats     Stats
	published Stats
}

// New returns a DD over numVars Boolean variables.
func New(numVars int) *DD { return NewWithCache(numVars, 1<<16) }

// NewWithCache is New with an explicit operation-cache size (a power of
// two). Smaller caches trade recomputation for memory; the cache-size
// ablation benchmark sweeps this.
func NewWithCache(numVars, cacheSize int) *DD {
	if numVars <= 0 || numVars >= 1<<20 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", numVars))
	}
	if cacheSize <= 0 || cacheSize&(cacheSize-1) != 0 {
		panic(fmt.Sprintf("bdd: cache size %d not a power of two", cacheSize))
	}
	d := &DD{numVars: numVars, roots: make(map[Ref]int)}
	d.nodes = make([]node, 2, 1024)
	d.next = make([]Ref, 2, 1024)
	d.nodes[False] = node{level: int32(numVars), low: False, high: False}
	d.nodes[True] = node{level: int32(numVars), low: True, high: True}
	d.live = 2
	d.initBuckets(1 << 12)
	d.cache.init(cacheSize)
	return d
}

// NumVars reports the number of Boolean variables the DD was created with.
func (d *DD) NumVars() int { return d.numVars }

// Size reports the number of live nodes, including the two terminals.
func (d *DD) Size() int { return d.live }

// MemBytes estimates the heap footprint of the node store, unique table and
// operation cache in bytes, counting allocated capacity (freed slots
// included). It is used by the memory-usage experiment.
func (d *DD) MemBytes() int {
	return len(d.nodes)*12 + len(d.next)*4 + len(d.buckets)*4 + d.cache.memBytes()
}

// LiveMemBytes estimates the footprint of live nodes only — what a
// compacted manager (e.g. after a Reconstruct into a fresh DD) would
// occupy. Construction scratch that GC has freed is excluded.
func (d *DD) LiveMemBytes() int {
	return d.live*16 + d.cache.memBytes()
}

func (d *DD) initBuckets(n int) {
	d.buckets = make([]Ref, n)
	for i := range d.buckets {
		d.buckets[i] = -1
	}
	d.mask = uint32(n - 1)
}

func hash3(level int32, low, high Ref) uint32 {
	h := uint64(uint32(level))*0x9e3779b97f4a7c15 ^ uint64(uint32(low))*0xbf58476d1ce4e5b9 ^ uint64(uint32(high))*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// mk returns the canonical node (level, low, high), applying the reduction
// rules: identical children collapse, and structurally equal nodes are
// shared via the unique table.
func (d *DD) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	b := hash3(level, low, high) & d.mask
	for r := d.buckets[b]; r >= 0; r = d.next[r] {
		n := &d.nodes[r]
		if n.level == level && n.low == low && n.high == high {
			return r
		}
	}
	d.stats.NodesAllocated++
	var r Ref
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
		d.nodes[r] = node{level: level, low: low, high: high}
	} else {
		r = Ref(len(d.nodes))
		d.nodes = append(d.nodes, node{level: level, low: low, high: high})
		d.next = append(d.next, -1)
	}
	d.live++
	d.next[r] = d.buckets[b]
	d.buckets[b] = r
	if d.live > len(d.buckets) {
		d.rehash(len(d.buckets) * 2)
	}
	return r
}

func (d *DD) rehash(n int) {
	d.initBuckets(n)
	for r := Ref(2); int(r) < len(d.nodes); r++ {
		nd := d.nodes[r]
		if nd.level < 0 { // freed slot
			continue
		}
		b := hash3(nd.level, nd.low, nd.high) & d.mask
		d.next[r] = d.buckets[b]
		d.buckets[b] = r
	}
}

// Var returns the BDD of the single positive literal x_i.
//
//lint:ignore unreached oracle literal builder for the bdd tests and aptree update_test.go
func (d *DD) Var(i int) Ref {
	d.checkVar(i)
	return d.mk(int32(i), False, True)
}

func (d *DD) checkVar(i int) {
	if i < 0 || i >= d.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, d.numVars))
	}
}

// Binary operation codes for the apply cache.
const (
	opAnd uint8 = iota + 1
	opOr
	opXor
	opDiff
	opNot
	opSat
)

// Not returns ¬f.
func (d *DD) Not(f Ref) Ref {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := d.cache.get2(opNot, f, 0); ok {
		d.stats.CacheHits++
		return r
	}
	d.stats.CacheMisses++
	d.ops++
	n := d.nodes[f]
	r := d.mk(n.level, d.Not(n.low), d.Not(n.high))
	d.cache.put2(opNot, f, 0, r)
	return r
}

// And returns f ∧ g.
func (d *DD) And(f, g Ref) Ref { return d.apply(opAnd, f, g) }

// Or returns f ∨ g.
func (d *DD) Or(f, g Ref) Ref { return d.apply(opOr, f, g) }

// Xor returns f ⊕ g.
func (d *DD) Xor(f, g Ref) Ref { return d.apply(opXor, f, g) }

// Diff returns f ∧ ¬g.
func (d *DD) Diff(f, g Ref) Ref { return d.apply(opDiff, f, g) }

// apply computes a binary Boolean operation by Shannon expansion with
// memoization.
func (d *DD) apply(op uint8, f, g Ref) Ref {
	// Terminal cases.
	switch op {
	case opAnd:
		if f == g {
			return f
		}
		if f == False || g == False {
			return False
		}
		if f == True {
			return g
		}
		if g == True {
			return f
		}
		if f > g { // commutative: normalize operand order for the cache
			f, g = g, f
		}
	case opOr:
		if f == g {
			return f
		}
		if f == True || g == True {
			return True
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f > g {
			f, g = g, f
		}
	case opXor:
		if f == g {
			return False
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f == True {
			return d.Not(g)
		}
		if g == True {
			return d.Not(f)
		}
		if f > g {
			f, g = g, f
		}
	case opDiff:
		if f == False || g == True || f == g {
			return False
		}
		if g == False {
			return f
		}
		if f == True {
			return d.Not(g)
		}
	}
	if r, ok := d.cache.get2(op, f, g); ok {
		d.stats.CacheHits++
		return r
	}
	d.stats.CacheMisses++
	d.ops++
	nf, ng := d.nodes[f], d.nodes[g]
	var level int32
	var f0, f1, g0, g1 Ref
	switch {
	case nf.level == ng.level:
		level, f0, f1, g0, g1 = nf.level, nf.low, nf.high, ng.low, ng.high
	case nf.level < ng.level:
		level, f0, f1, g0, g1 = nf.level, nf.low, nf.high, g, g
	default:
		level, f0, f1, g0, g1 = ng.level, f, f, ng.low, ng.high
	}
	r := d.mk(level, d.apply(op, f0, g0), d.apply(op, f1, g1))
	d.cache.put2(op, f, g, r)
	return r
}

// Implies reports whether f ⇒ g, i.e. the set of packets of f is contained
// in that of g.
func (d *DD) Implies(f, g Ref) bool { return d.Diff(f, g) == False }

// Disjoint reports whether f ∧ g is unsatisfiable. It short-circuits without
// building the conjunction node set beyond what apply memoization requires.
func (d *DD) Disjoint(f, g Ref) bool { return d.And(f, g) == False }

// EvalBits evaluates f against a packed bit vector (bit i of the header is
// bit 7-i%8 of byte i/8, i.e. MSB-first), avoiding a closure allocation.
func (d *DD) EvalBits(f Ref, bits []byte) bool {
	nodes := d.nodes
	for f > True {
		n := nodes[f]
		if bits[n.level>>3]&(0x80>>(uint(n.level)&7)) != 0 {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (exact for counts below 2^53).
func (d *DD) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(Ref) float64
	count = func(f Ref) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return 1
		}
		if v, ok := memo[f]; ok {
			return v
		}
		n := d.nodes[f]
		lo := count(n.low) * math.Exp2(float64(d.nodes[n.low].level-n.level-1))
		hi := count(n.high) * math.Exp2(float64(d.nodes[n.high].level-n.level-1))
		v := lo + hi
		memo[f] = v
		return v
	}
	return count(f) * math.Exp2(float64(d.nodes[f].level))
}

// AnySat returns one satisfying assignment of f as a slice of length
// NumVars with entries 0, 1 or -1 (don't care). It returns nil for False.
func (d *DD) AnySat(f Ref) []int8 {
	if f == False {
		return nil
	}
	a := make([]int8, d.numVars)
	for i := range a {
		a[i] = -1
	}
	for f > True {
		n := d.nodes[f]
		if n.high != False {
			a[n.level] = 1
			f = n.high
		} else {
			a[n.level] = 0
			f = n.low
		}
	}
	return a
}

// Retain registers f as a GC root. Each Retain must eventually be paired
// with a Release for the node to become collectable.
func (d *DD) Retain(f Ref) Ref {
	if f > True {
		d.roots[f]++
	}
	return f
}

// Release drops one root registration of f.
func (d *DD) Release(f Ref) {
	if f <= True {
		return
	}
	c, ok := d.roots[f]
	if !ok {
		panic(fmt.Sprintf("bdd: Release of unretained node %d", f))
	}
	if c == 1 {
		delete(d.roots, f)
	} else {
		d.roots[f] = c - 1
	}
}

// GC reclaims every node not reachable from a retained root. Collection is
// non-moving: live Refs remain valid. The operation caches are cleared.
// It reports the number of nodes freed.
func (d *DD) GC() int {
	marked := make([]bool, len(d.nodes))
	marked[False], marked[True] = true, true
	var mark func(Ref)
	mark = func(f Ref) {
		if marked[f] {
			return
		}
		marked[f] = true
		n := d.nodes[f]
		mark(n.low)
		mark(n.high)
	}
	for r := range d.roots {
		mark(r)
	}
	freed := 0
	for r := Ref(2); int(r) < len(d.nodes); r++ {
		if !marked[r] && d.nodes[r].level >= 0 {
			d.nodes[r].level = -1
			d.free = append(d.free, r)
			freed++
		}
	}
	d.live -= freed
	d.rehash(len(d.buckets))
	d.cache.clear()
	d.stats.GCRuns++
	d.stats.GCFreed += uint64(freed)
	d.debugAfterGC()
	return freed
}

// CheckInvariants verifies structural soundness of every live node: child
// levels strictly greater than parent level, no node with identical
// children, unique-table canonicity (no structural duplicates), and
// unique-table integrity (every live node findable through its hash
// bucket, so mk cannot re-allocate it). It is used by tests and, under the
// apdebug build tag, after every GC.
//
//lint:ignore unreached apdebug: debug_on.go runs it after every GC; the bdd tests call it directly
func (d *DD) CheckInvariants() error {
	type key struct {
		level     int32
		low, high Ref
	}
	seen := make(map[key]Ref)
	for r := Ref(2); int(r) < len(d.nodes); r++ {
		n := d.nodes[r]
		if n.level < 0 {
			continue
		}
		if n.level >= int32(d.numVars) {
			return fmt.Errorf("node %d: level %d out of range", r, n.level)
		}
		if n.low == n.high {
			return fmt.Errorf("node %d: redundant (low == high == %d)", r, n.low)
		}
		if d.nodes[n.low].level <= n.level && n.low > True {
			return fmt.Errorf("node %d: low child level %d not below %d", r, d.nodes[n.low].level, n.level)
		}
		if d.nodes[n.high].level <= n.level && n.high > True {
			return fmt.Errorf("node %d: high child level %d not below %d", r, d.nodes[n.high].level, n.level)
		}
		k := key{n.level, n.low, n.high}
		if prev, ok := seen[k]; ok {
			return fmt.Errorf("duplicate nodes %d and %d for %+v", prev, r, k)
		}
		seen[k] = r
		b := hash3(n.level, n.low, n.high) & d.mask
		found := false
		for c := d.buckets[b]; c >= 0; c = d.next[c] {
			if c == r {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("node %d missing from its unique-table bucket", r)
		}
	}
	return nil
}

// AuditAfterGC cross-checks the root set against the node store right
// after a garbage collection: every retained root must be a live node, no
// freed slot may be reachable, and the number of nodes reachable from the
// roots (plus the two terminals) must equal the live count — i.e. GC freed
// exactly the garbage and nothing survives without a justifying root.
// Between collections the audit does not hold (construction scratch is
// live but unrooted), so call it only immediately after GC.
//
//lint:ignore unreached apdebug: debug_on.go runs it after every GC; apdebug_test.go calls it directly
func (d *DD) AuditAfterGC() error {
	reach := make([]bool, len(d.nodes))
	reach[False], reach[True] = true, true
	var mark func(Ref) error
	mark = func(f Ref) error {
		if f < 0 || int(f) >= len(d.nodes) {
			return fmt.Errorf("reachable ref %d out of range [0,%d)", f, len(d.nodes))
		}
		if reach[f] {
			return nil
		}
		if d.nodes[f].level < 0 {
			return fmt.Errorf("reachable node %d is freed", f)
		}
		reach[f] = true
		if err := mark(d.nodes[f].low); err != nil {
			return err
		}
		return mark(d.nodes[f].high)
	}
	for r, c := range d.roots {
		if c <= 0 {
			return fmt.Errorf("root %d has non-positive retain count %d", r, c)
		}
		if err := mark(r); err != nil {
			return fmt.Errorf("root %d: %v", r, err)
		}
	}
	n := 0
	for _, ok := range reach {
		if ok {
			n++
		}
	}
	if n != d.live {
		return fmt.Errorf("%d live nodes but %d reachable from %d roots", d.live, n, len(d.roots))
	}
	return nil
}
