package bdd

import "fmt"

// FromPrefix returns the BDD matching the leading length bits of value
// (an unsigned field of width bits) placed at variable offset. Bit 0 of the
// field is its most significant bit, i.e. variable offset. A length of 0
// matches everything.
//
// Building bottom-up yields the minimal chain of length nodes without any
// apply calls.
func (d *DD) FromPrefix(offset int, value uint64, length, width int) Ref {
	if length < 0 || length > width {
		panic(fmt.Sprintf("bdd: prefix length %d out of range [0,%d]", length, width))
	}
	if offset < 0 || offset+width > d.numVars {
		panic(fmt.Sprintf("bdd: field [%d,%d) out of variable range", offset, offset+width))
	}
	r := True
	for i := length - 1; i >= 0; i-- {
		v := int32(offset + i)
		if value&(1<<uint(width-1-i)) != 0 {
			r = d.mk(v, False, r)
		} else {
			r = d.mk(v, r, False)
		}
	}
	return r
}

// FromValue returns the BDD matching the exact width-bit value at offset.
func (d *DD) FromValue(offset int, value uint64, width int) Ref {
	return d.FromPrefix(offset, value, width, width)
}

// FromRange returns the BDD matching lo ≤ field ≤ hi for the width-bit field
// at offset, by decomposing the range into maximal aligned prefixes (the
// standard range-to-prefix expansion used for ACL port ranges).
func (d *DD) FromRange(offset int, lo, hi uint64, width int) Ref {
	if lo > hi {
		return False
	}
	max := uint64(1)<<uint(width) - 1
	if hi > max {
		panic(fmt.Sprintf("bdd: range bound %d exceeds %d-bit field", hi, width))
	}
	r := False
	for lo <= hi {
		// Largest aligned block starting at lo that fits within [lo, hi].
		size := uint64(1)
		for lo+size*2-1 <= hi && lo&(size*2-1) == 0 && size*2 != 0 {
			size *= 2
		}
		bits := 0
		for s := size; s > 1; s >>= 1 {
			bits++
		}
		r = d.Or(r, d.FromPrefix(offset, lo, width-bits, width))
		if lo+size-1 == max {
			break // avoid wrap-around
		}
		lo += size
	}
	return r
}

// FromTernary returns the BDD matching a ternary bit pattern over the whole
// variable range: '0', '1' match that bit value, '*' or 'x' match both.
// The pattern may be shorter than NumVars; missing trailing bits are '*'.
//
//lint:ignore unreached oracle: hsa reachall_test.go turns HSA wildcard expressions into BDDs with it to compare reach sets
func (d *DD) FromTernary(pattern string) Ref {
	if len(pattern) > d.numVars {
		panic(fmt.Sprintf("bdd: ternary pattern longer (%d) than variable count (%d)", len(pattern), d.numVars))
	}
	r := True
	for i := len(pattern) - 1; i >= 0; i-- {
		switch pattern[i] {
		case '1':
			r = d.mk(int32(i), False, r)
		case '0':
			r = d.mk(int32(i), r, False)
		case '*', 'x', 'X':
		default:
			panic(fmt.Sprintf("bdd: invalid ternary character %q", pattern[i]))
		}
	}
	return r
}
