package aptree

import (
	"fmt"
	"strconv"
	"strings"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// MaxOptimalPreds bounds BuildOptimal's input size; the search memoizes
// over subsets of predicates and atom sets, which explodes beyond this.
const MaxOptimalPreds = 24

// BuildOptimal constructs a minimum-total-leaf-depth AP Tree by exhaustive
// memoized evaluation of the recursion F(Q,S) of §V-C, equation (1). The
// paper dismisses this computation as O(2^k·k!) and proposes the OAPT
// heuristic instead; this implementation exists to measure the heuristic's
// optimality gap on small inputs (see the optimality-gap experiment) and
// as a test oracle. It panics when more than MaxOptimalPreds predicates
// are live.
func BuildOptimal(in Input) *Tree {
	if len(in.Live) > MaxOptimalPreds {
		panic(fmt.Sprintf("aptree: BuildOptimal limited to %d predicates, got %d", MaxOptimalPreds, len(in.Live)))
	}
	t := &Tree{D: in.D, preds: append([]bdd.Ref(nil), in.Preds...)}
	b := &builder{in: in, t: t, rsets: make([]predicate.AtomSet, len(in.Preds))}
	posOf := make(map[int32]uint, len(in.Live))
	for i, id := range in.Live {
		b.rsets[id] = in.Atoms.RSet(int(id))
		posOf[id] = uint(i)
	}
	all := predicate.AtomRange(0, int32(in.Atoms.N()))
	o := &optimizer{b: b, posOf: posOf, memo: map[string]optEntry{}}
	allMask := uint32(1)<<uint(len(in.Live)) - 1
	t.root = o.build(allMask, in.Live, all, 0)
	t.nextAtom = int32(in.Atoms.N())
	t.visits = newVisitCounters(int(t.nextAtom))
	return t
}

type optEntry struct {
	cost int
	pred int32 // argmin root predicate; -1 for leaves
}

type optimizer struct {
	b     *builder
	posOf map[int32]uint
	memo  map[string]optEntry
}

func (o *optimizer) key(qmask uint32, s predicate.AtomSet) string {
	var sb strings.Builder
	sb.WriteString(strconv.FormatUint(uint64(qmask), 16))
	s.EachRun(func(lo, hi int32) bool {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(lo), 36))
		sb.WriteByte('-')
		sb.WriteString(strconv.FormatInt(int64(hi), 36))
		return true
	})
	return sb.String()
}

// cost computes F(Q,S) with memoization, recording the argmin predicate.
func (o *optimizer) cost(qmask uint32, q []int32, s predicate.AtomSet) int {
	if s.Len() == 1 {
		return 0
	}
	k := o.key(qmask, s)
	if e, ok := o.memo[k]; ok {
		return e.cost
	}
	best := optEntry{cost: -1, pred: -1}
	for _, p := range q {
		if qmask&(1<<o.posOf[p]) == 0 {
			continue
		}
		st := s.Intersect(o.b.rset(p))
		if st.Empty() || st.Len() == s.Len() {
			continue
		}
		sf := s.Diff(o.b.rset(p))
		q2 := qmask &^ (1 << o.posOf[p])
		c := o.cost(q2, q, st) + o.cost(q2, q, sf) + s.Len()
		if best.cost < 0 || c < best.cost {
			best = optEntry{cost: c, pred: p}
		}
	}
	if best.cost < 0 {
		panic(fmt.Sprintf("aptree: %d atoms indistinguishable by remaining predicates", s.Len()))
	}
	o.memo[k] = best
	return best.cost
}

// build materializes the optimal tree by replaying the memoized argmins.
func (o *optimizer) build(qmask uint32, q []int32, s predicate.AtomSet, depth int32) *Node {
	if s.Len() == 1 {
		return o.b.leaf(s.Min(), depth)
	}
	o.cost(qmask, q, s) // ensure memo entry
	e := o.memo[o.key(qmask, s)]
	st := s.Intersect(o.b.rset(e.pred))
	sf := s.Diff(o.b.rset(e.pred))
	q2 := qmask &^ (1 << o.posOf[e.pred])
	return &Node{
		Pred:  e.pred,
		Depth: depth,
		T:     o.build(q2, q, st, depth+1),
		F:     o.build(q2, q, sf, depth+1),
	}
}
