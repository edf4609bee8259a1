package experiments

import (
	"math/rand"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// predPool is an immutable snapshot of a network's predicates that dynamic
// experiments draw from. The pool lives in its own DD so that transferring
// a predicate into a live manager (whose DD changes across reconstructions)
// is always safe.
type predPool struct {
	d    *bdd.DD
	refs []bdd.Ref
}

// newPredPool snapshots the live predicates of a build input.
func newPredPool(in aptree.Input) *predPool {
	p := &predPool{d: bdd.New(in.D.NumVars())}
	for _, id := range in.Live {
		ref := bdd.Transfer(p.d, in.D, in.Preds[id])
		p.d.Retain(ref)
		p.refs = append(p.refs, ref)
	}
	return p
}

// builder returns an AddPredicate callback installing pool predicate i.
func (p *predPool) builder(i int) func(d *bdd.DD) bdd.Ref {
	ref := p.refs[i]
	src := p.d
	return func(d *bdd.DD) bdd.Ref { return bdd.Transfer(d, src, ref) }
}

// subsetManager builds a live Manager over the first `initial` predicates
// of the pool (in a shuffled order), with its own DD and an OAPT (or other
// method) tree — the starting point of the dynamic experiments (§VII-E).
func subsetManager(pool *predPool, order []int, initial int, method aptree.Method) *aptree.Manager {
	d := bdd.New(pool.d.NumVars())
	reg := aptree.NewRegistry()
	var live []int32
	for k := 0; k < initial; k++ {
		ref := bdd.Transfer(d, pool.d, pool.refs[order[k]])
		d.Retain(ref)
		live = append(live, reg.Add(ref))
	}
	refs := make([]bdd.Ref, len(live))
	ids := make([]int, len(live))
	for i, id := range live {
		refs[i] = reg.Ref(id)
		ids[i] = int(id)
	}
	atoms := predicate.ComputeMapped(d, refs, ids, reg.NumIDs())
	tree := aptree.Build(aptree.Input{D: d, Preds: reg.Refs(), Live: live, Atoms: atoms}, method)
	return aptree.NewManagerWith(d, reg, tree, method, nil)
}

// shuffledOrder returns a deterministic shuffle of [0, n).
func shuffledOrder(n int, rng *rand.Rand) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
