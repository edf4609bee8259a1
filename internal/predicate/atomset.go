package predicate

import (
	"fmt"
	"strings"
)

// AtomSet is an interval-coded set of atom IDs: sorted, merged [lo, hi)
// runs stored as a flat pair array. It is the "field of sets"
// representation of R(p) — the atoms whose disjunction is a predicate —
// and of every derived atom set the AP Tree builder and the verification
// engine manipulate.
//
// The representation pays off because refinement allocates split-off
// atoms adjacent to their parents (see ComputeMapped): the atoms of one
// predicate then occupy a handful of contiguous ID runs regardless of how
// many atoms the predicate covers, so union/intersection/complement run
// in time proportional to the run counts, not the element counts.
//
// An AtomSet value is immutable once built; all operations return new
// sets. The zero value is the empty set.
type AtomSet struct {
	// runs holds [lo0, hi0, lo1, hi1, ...] with lo < hi, hi_k < lo_{k+1}
	// (adjacent runs are merged), ascending.
	runs []int32
}

// EmptyAtomSet is the empty set (also the zero value).
var EmptyAtomSet = AtomSet{}

// AtomRange returns the set [lo, hi). An empty range yields the empty set.
func AtomRange(lo, hi int32) AtomSet {
	if lo >= hi {
		return AtomSet{}
	}
	return AtomSet{runs: []int32{lo, hi}}
}

// AtomSetOf builds a set from arbitrary IDs (deduplicated, any order).
//
//lint:ignore unreached oracle: the predicate model tests and aptree tree_test.go build expected sets with it
func AtomSetOf(ids ...int32) AtomSet {
	var b AtomSetBuilder
	// Insertion sort keeps this allocation-light; argument lists are short.
	sorted := append([]int32(nil), ids...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i, id := range sorted {
		if i > 0 && id == sorted[i-1] {
			continue
		}
		b.Add(id)
	}
	return b.Set()
}

// AtomSetBuilder accumulates ascending IDs into merged runs.
type AtomSetBuilder struct {
	runs []int32
}

// Add appends id, which must be strictly greater than every ID added so
// far; consecutive IDs extend the current run.
func (b *AtomSetBuilder) Add(id int32) {
	if n := len(b.runs); n > 0 {
		if id < b.runs[n-1] {
			panic(fmt.Sprintf("predicate: AtomSetBuilder.Add out of order: %d after [.., %d)", id, b.runs[n-1]))
		}
		if id == b.runs[n-1] {
			b.runs[n-1] = id + 1
			return
		}
	}
	b.runs = append(b.runs, id, id+1)
}

// AddRange appends [lo, hi), which must start at or after the current
// frontier.
func (b *AtomSetBuilder) AddRange(lo, hi int32) {
	if lo >= hi {
		return
	}
	if n := len(b.runs); n > 0 {
		if lo < b.runs[n-1] {
			panic(fmt.Sprintf("predicate: AtomSetBuilder.AddRange out of order: [%d,%d) after [.., %d)", lo, hi, b.runs[n-1]))
		}
		if lo == b.runs[n-1] {
			b.runs[n-1] = hi
			return
		}
	}
	b.runs = append(b.runs, lo, hi)
}

// Set returns the accumulated set; the builder must not be reused after.
func (b *AtomSetBuilder) Set() AtomSet { return AtomSet{runs: b.runs} }

// Empty reports whether the set has no elements.
func (s AtomSet) Empty() bool { return len(s.runs) == 0 }

// Len returns the number of elements.
func (s AtomSet) Len() int {
	n := 0
	for i := 0; i < len(s.runs); i += 2 {
		n += int(s.runs[i+1] - s.runs[i])
	}
	return n
}

// NumRuns returns the number of [lo, hi) intervals — the quantity every
// set operation's cost is proportional to.
func (s AtomSet) NumRuns() int { return len(s.runs) / 2 }

// Min returns the smallest element; it panics on the empty set.
func (s AtomSet) Min() int32 {
	if len(s.runs) == 0 {
		panic("predicate: Min of empty AtomSet")
	}
	return s.runs[0]
}

// Contains reports whether id is an element. Binary search over runs.
func (s AtomSet) Contains(id int32) bool {
	lo, hi := 0, s.NumRuns()
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case id < s.runs[2*mid]:
			hi = mid
		case id >= s.runs[2*mid+1]:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Each calls fn on every element in ascending order until fn returns
// false.
func (s AtomSet) Each(fn func(id int32) bool) {
	for i := 0; i < len(s.runs); i += 2 {
		for id := s.runs[i]; id < s.runs[i+1]; id++ {
			if !fn(id) {
				return
			}
		}
	}
}

// EachRun calls fn on every [lo, hi) run in ascending order until fn
// returns false.
func (s AtomSet) EachRun(fn func(lo, hi int32) bool) {
	for i := 0; i < len(s.runs); i += 2 {
		if !fn(s.runs[i], s.runs[i+1]) {
			return
		}
	}
}

// Equal reports set equality (run arrays are canonical, so this is a
// plain comparison).
//
//lint:ignore unreached oracle: the predicate model tests and verify churn_test.go compare sets with it
func (s AtomSet) Equal(t AtomSet) bool {
	if len(s.runs) != len(t.runs) {
		return false
	}
	for i := range s.runs {
		if s.runs[i] != t.runs[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s AtomSet) Union(t AtomSet) AtomSet {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	var b AtomSetBuilder
	i, j := 0, 0
	for i < len(s.runs) || j < len(t.runs) {
		var lo, hi int32
		switch {
		case j >= len(t.runs) || (i < len(s.runs) && s.runs[i] <= t.runs[j]):
			lo, hi = s.runs[i], s.runs[i+1]
			i += 2
		default:
			lo, hi = t.runs[j], t.runs[j+1]
			j += 2
		}
		// Absorb every run overlapping or adjacent to [lo, hi).
		for {
			if i < len(s.runs) && s.runs[i] <= hi {
				if s.runs[i+1] > hi {
					hi = s.runs[i+1]
				}
				i += 2
				continue
			}
			if j < len(t.runs) && t.runs[j] <= hi {
				if t.runs[j+1] > hi {
					hi = t.runs[j+1]
				}
				j += 2
				continue
			}
			break
		}
		b.AddRange(lo, hi)
	}
	return b.Set()
}

// Intersect returns s ∩ t.
func (s AtomSet) Intersect(t AtomSet) AtomSet {
	var b AtomSetBuilder
	i, j := 0, 0
	for i < len(s.runs) && j < len(t.runs) {
		lo := s.runs[i]
		if t.runs[j] > lo {
			lo = t.runs[j]
		}
		hi := s.runs[i+1]
		if t.runs[j+1] < hi {
			hi = t.runs[j+1]
		}
		if lo < hi {
			b.AddRange(lo, hi)
		}
		if s.runs[i+1] <= t.runs[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return b.Set()
}

// IntersectLen returns |s ∩ t| without allocating.
func (s AtomSet) IntersectLen(t AtomSet) int {
	n := 0
	i, j := 0, 0
	for i < len(s.runs) && j < len(t.runs) {
		lo := s.runs[i]
		if t.runs[j] > lo {
			lo = t.runs[j]
		}
		hi := s.runs[i+1]
		if t.runs[j+1] < hi {
			hi = t.runs[j+1]
		}
		if lo < hi {
			n += int(hi - lo)
		}
		if s.runs[i+1] <= t.runs[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return n
}

// Diff returns s ∖ t.
func (s AtomSet) Diff(t AtomSet) AtomSet {
	if s.Empty() || t.Empty() {
		return s
	}
	var b AtomSetBuilder
	j := 0
	for i := 0; i < len(s.runs); i += 2 {
		lo, hi := s.runs[i], s.runs[i+1]
		for j < len(t.runs) && t.runs[j+1] <= lo {
			j += 2
		}
		k := j
		for lo < hi {
			if k >= len(t.runs) || t.runs[k] >= hi {
				b.AddRange(lo, hi)
				break
			}
			if t.runs[k] > lo {
				b.AddRange(lo, t.runs[k])
			}
			if t.runs[k+1] > lo {
				lo = t.runs[k+1]
			}
			k += 2
		}
	}
	return b.Set()
}

// String renders the runs compactly, e.g. "{0-3, 7, 9-12}".
func (s AtomSet) String() string {
	if s.Empty() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(s.runs); i += 2 {
		if i > 0 {
			sb.WriteString(", ")
		}
		lo, hi := s.runs[i], s.runs[i+1]
		if hi == lo+1 {
			fmt.Fprintf(&sb, "%d", lo)
		} else {
			fmt.Fprintf(&sb, "%d-%d", lo, hi-1)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
