// Package unreached seeds the unreached check. The functions below
// without a "reached" note must each be reported; every other one is
// reached by a rule of the check and must stay silent.
package unreached

import "sort"

// init is a root: the runtime calls it.
func init() {
	var s shape = square{2}
	_ = s.area()
	sort.Sort(byLen{"bb", "a"})
	_ = table["double"](1)
	_ = maxOf(1, 2)
}

// noCaller has no caller at all.
func noCaller() {}

// onlyTests is called only from unreached_test.go, which the loader
// never reads.
func onlyTests() int { return 1 }

// recursive calls itself, which does not count as a caller.
func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// debugOnly is called only from debug_on.go, a file gated behind the
// apdebug tag the loader leaves out.
func debugOnly() {}

// debugKept is reached the same way and kept for it.
//
//lint:ignore unreached apdebug: debug_on.go calls it
func debugKept() {}

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached: the call in init goes through the shape interface.
func (s square) area() float64 { return s.side * s.side }

type byLen []string

// Len, Less and Swap are reached: sort.Sort calls them through
// sort.Interface.
func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// double is reached: it is stored in a package-level table.
func double(x int) int { return 2 * x }

var table = map[string]func(int) int{"double": double}

// maxOf is reached: init calls an instantiation of it.
func maxOf[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
