package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Registry assigns stable global IDs to predicate BDDs. IDs are never
// reused: a removed predicate's slot stays dead — its ref cleared, exactly
// as the tree clears Pred(id) — so membership vectors and network
// references remain unambiguous.
type Registry struct {
	refs []bdd.Ref
	// live has bit id set iff slot id is not dead. It is copy-on-write:
	// published snapshots and Clone share it, so Add and Remove replace
	// it instead of mutating it.
	live predicate.Bitset
	n    int // live count
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a predicate BDD and returns its new global ID.
func (r *Registry) Add(ref bdd.Ref) int32 {
	id := len(r.refs)
	r.refs = append(r.refs, ref)
	r.live = r.live.Clone(len(r.refs))
	r.live.Set(id, true)
	r.n++
	return int32(id)
}

// Remove kills slot id, clears its ref and returns the ref it held.
func (r *Registry) Remove(id int32) bdd.Ref {
	if !r.IsLive(id) {
		panic(fmt.Sprintf("aptree: double removal of predicate %d", id))
	}
	old := r.refs[id]
	r.refs[id] = bdd.False
	r.live = r.live.Clone(len(r.refs))
	r.live.Set(int(id), false)
	r.n--
	return old
}

// Replace swaps live slot id's ref for ref; the ID stays live.
func (r *Registry) Replace(id int32, ref bdd.Ref) {
	if !r.IsLive(id) {
		panic(fmt.Sprintf("aptree: replacing dead predicate %d", id))
	}
	r.refs[id] = ref
}

// Ref returns the BDD of predicate id (bdd.False for a dead slot).
func (r *Registry) Ref(id int32) bdd.Ref { return r.refs[id] }

// IsLive reports whether id has not been removed.
func (r *Registry) IsLive(id int32) bool { return r.live.Get(int(id)) }

// NumIDs reports the size of the ID space (live + dead).
func (r *Registry) NumIDs() int { return len(r.refs) }

// LiveIDs returns the live IDs in increasing order.
func (r *Registry) LiveIDs() []int32 {
	ids := make([]int32, 0, r.n)
	for id := range r.refs {
		if r.live.Get(id) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// Refs returns the full ID-indexed BDD slice (dead slots included).
func (r *Registry) Refs() []bdd.Ref { return r.refs }

// Clone returns an independent copy (used to snapshot for reconstruction).
func (r *Registry) Clone() *Registry {
	return &Registry{
		refs: append([]bdd.Ref(nil), r.refs...),
		live: r.live,
		n:    r.n,
	}
}
