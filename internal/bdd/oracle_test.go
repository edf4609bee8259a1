package bdd

import "io"

// Test-only helpers over the DD and its frozen view: the truth-table
// oracles (literal builders, n-ary folds, per-bit evaluation), a node
// counter for structure assertions and the live-DD encoder View.Save is
// compared against. Production code builds predicates from prefixes and
// ranges and evaluates packets with EvalBits.

// NVar returns the BDD of the single negative literal ¬x_i.
func (d *DD) NVar(i int) Ref {
	d.checkVar(i)
	return d.mk(int32(i), True, False)
}

// AndN folds And over all operands (True for none).
func (d *DD) AndN(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = d.And(r, f)
		if r == False {
			return False
		}
	}
	return r
}

// OrN folds Or over all operands (False for none).
func (d *DD) OrN(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = d.Or(r, f)
		if r == True {
			return True
		}
	}
	return r
}

// Eval evaluates f under the assignment provided by bit, which must return
// the value of variable i.
func (d *DD) Eval(f Ref, bit func(i int) bool) bool {
	for f > True {
		n := d.nodes[f]
		if bit(int(n.level)) {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// NodeCount returns the number of distinct nodes reachable from f,
// excluding terminals.
func (d *DD) NodeCount(f Ref) int {
	seen := make(map[Ref]struct{})
	var walk func(Ref)
	walk = func(f Ref) {
		if f <= True {
			return
		}
		if _, ok := seen[f]; ok {
			return
		}
		seen[f] = struct{}{}
		walk(d.nodes[f].low)
		walk(d.nodes[f].high)
	}
	walk(f)
	return len(seen)
}

// Save writes the functions rooted at roots to w. The on-disk node
// numbering is private to the stream; Load rebuilds canonical nodes.
func (d *DD) Save(w io.Writer, roots ...Ref) error {
	return saveNodes(d.nodes, d.numVars, w, roots)
}

// Eval evaluates f under the assignment provided by bit; see DD.Eval.
func (v *View) Eval(f Ref, bit func(i int) bool) bool {
	nodes := v.nodes
	for f > True {
		n := nodes[f]
		if bit(int(n.level)) {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}
