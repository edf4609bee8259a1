package bdd

import "math"

// View is a read-only evaluation view of a DD, frozen at a point in time.
// It is the substrate of the classifier's lock-free query path: a writer
// keeps allocating nodes in the DD while any number of readers evaluate
// through Views taken earlier.
//
// Safety model. A View aliases the DD's node store rather than copying it;
// what makes that sound is that the store is append-only between garbage
// collections. The View captures the store prefix that existed at Freeze
// time, and every Ref reachable from a root retained at Freeze time points
// into that prefix. Later mk calls only write slots past the prefix (or
// slots freed by a GC, which are by definition unreachable from retained
// roots), so readers and the writer never touch the same memory. Publish
// the View through an atomic pointer (or another happens-before edge) so
// its prefix writes are visible to readers.
//
// Rules for holders of a View:
//
//   - Only evaluate Refs that were retained (directly or transitively, e.g.
//     via an AP Tree's leaf retentions) when the View was frozen, and whose
//     retention outlives the View.
//   - Releasing such a root and then running DD.GC invalidates the View:
//     freed slots may be rewritten by later allocations. The classifier
//     therefore collects garbage only at swap boundaries — when a rebuild
//     retires a whole DD and no View over it is published anymore — never
//     on a DD with outstanding Views.
type View struct {
	nodes   []node
	numVars int
	live    int // live node count at freeze, incl. terminals
	mem     int // MemBytes() at freeze
	liveMem int // LiveMemBytes() at freeze
}

// Freeze returns a read-only evaluation view of the DD's current state.
// Freezing is O(1): the view aliases the node store and records its
// current length and memory statistics.
func (d *DD) Freeze() *View {
	return &View{
		nodes:   d.nodes[:len(d.nodes):len(d.nodes)],
		numVars: d.numVars,
		live:    d.live,
		mem:     d.MemBytes(),
		liveMem: d.LiveMemBytes(),
	}
}

// NumVars reports the number of Boolean variables of the frozen DD.
func (v *View) NumVars() int { return v.numVars }

// LiveNodes reports the number of live nodes at freeze time.
func (v *View) LiveNodes() int { return v.live }

// MemBytes reports the DD's allocated-footprint estimate at freeze time.
func (v *View) MemBytes() int { return v.mem }

// LiveMemBytes reports the DD's LiveMemBytes at freeze time: its live
// nodes and operation cache, without the slots GC freed.
func (v *View) LiveMemBytes() int { return v.liveMem }

// EvalBits evaluates f against a packed MSB-first bit vector; see
// DD.EvalBits. This is the snapshot query path's hot loop.
func (v *View) EvalBits(f Ref, bits []byte) bool {
	nodes := v.nodes
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

// SatCount returns the number of satisfying assignments of f over the
// frozen DD's variables; see DD.SatCount. Like EvalBits it only reads the
// frozen node-store prefix, so the verification engine can size packet
// sets from a pinned epoch while the live DD keeps growing.
func (v *View) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(Ref) float64
	count = func(f Ref) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		n := v.nodes[f]
		lo := count(n.low) * math.Exp2(float64(v.nodes[n.low].level-n.level-1))
		hi := count(n.high) * math.Exp2(float64(v.nodes[n.high].level-n.level-1))
		c := lo + hi
		memo[f] = c
		return c
	}
	return count(f) * math.Exp2(float64(v.nodes[f].level))
}

// AnySat returns one satisfying assignment of f as a slice of length
// NumVars with entries 0, 1 or -1 (don't care), or nil for False; see
// DD.AnySat. Reads only the frozen prefix.
func (v *View) AnySat(f Ref) []int8 {
	if f == False {
		return nil
	}
	a := make([]int8, v.numVars)
	for i := range a {
		a[i] = -1
	}
	for f > True {
		n := v.nodes[f]
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
