// Package hsa implements Header Space Analysis (Kazemian et al., NSDI'12)
// as the paper's main baseline, standing in for Hassel-C: packet headers as
// points in a {0,1}^L space, rule matches as wildcard (ternary)
// expressions, boxes as transfer functions, and reachability computed by
// propagating header-space sets hop by hop.
//
// The paper reports Hassel-C answering per-packet behavior queries about
// three orders of magnitude slower than AP Classifier; the gap is inherent
// to the algorithm — every box traversal re-scans the box's rule list
// doing ternary intersections — and reproduces here.
package hsa

// Expr is a wildcard expression over L header bits: a set of headers where
// each bit is 0, 1 or don't-care. Bit i of the header is bit i%64 of word
// i/64 (note: this differs from packet byte order; use FromPacket).
type Expr struct {
	nbits int
	val   []uint64 // bit value where care
	wild  []uint64 // 1 = don't care
}

func words(nbits int) int { return (nbits + 63) / 64 }

// All returns the expression matching every header.
func All(nbits int) Expr {
	e := Expr{nbits: nbits, val: make([]uint64, words(nbits)), wild: make([]uint64, words(nbits))}
	for i := range e.wild {
		e.wild[i] = ^uint64(0)
	}
	if r := nbits % 64; r != 0 {
		e.wild[len(e.wild)-1] = 1<<uint(r) - 1
	}
	return e
}

// FromPacket returns the fully concrete expression of one header. Packet
// bytes use the layout convention (bit i = MSB-first within bytes).
func FromPacket(pkt []byte, nbits int) Expr {
	e := All(nbits)
	for i := 0; i < nbits; i++ {
		set := pkt[i/8]&(0x80>>uint(i%8)) != 0
		e.setBit(i, set)
	}
	return e
}

func (e *Expr) setBit(i int, v bool) {
	w, b := i/64, uint(i%64)
	e.wild[w] &^= 1 << b
	if v {
		e.val[w] |= 1 << b
	} else {
		e.val[w] &^= 1 << b
	}
}

// SetField constrains a layout field: the leading `length` bits of the
// width-bit field at bit offset must equal the prefix of value. Remaining
// field bits stay as they were.
func (e *Expr) SetField(offset, width int, value uint64, length int) {
	for i := 0; i < length; i++ {
		e.setBit(offset+i, value&(1<<uint(width-1-i)) != 0)
	}
}

// Intersect returns e ∩ o; ok is false when the intersection is empty.
func (e Expr) Intersect(o Expr) (Expr, bool) {
	if e.nbits != o.nbits {
		panic("hsa: intersecting expressions of different widths")
	}
	r := Expr{nbits: e.nbits, val: make([]uint64, len(e.val)), wild: make([]uint64, len(e.val))}
	for i := range e.val {
		// Conflict: both care and values differ.
		conflict := ^e.wild[i] & ^o.wild[i] & (e.val[i] ^ o.val[i])
		if conflict != 0 {
			return Expr{}, false
		}
		r.wild[i] = e.wild[i] & o.wild[i]
		r.val[i] = (e.val[i] & ^e.wild[i]) | (o.val[i] & ^o.wild[i])
	}
	return r, true
}

// Subtract returns e ∖ o as a union of expressions — one per bit where e is
// wild and o cares (the standard HSA complement expansion).
func (e Expr) Subtract(o Expr) []Expr {
	inter, ok := e.Intersect(o)
	if !ok {
		return []Expr{e}
	}
	_ = inter
	var out []Expr
	prefix := e // progressively constrained copy
	for i := 0; i < e.nbits; i++ {
		w, b := i/64, uint(i%64)
		if o.wild[w]&(1<<b) != 0 {
			continue // o doesn't care: no split on this bit
		}
		oval := o.val[w]&(1<<b) != 0
		if prefix.wild[w]&(1<<b) == 0 {
			// e (as constrained so far) cares: either matches o (keep
			// going) or we already returned via empty intersection.
			if (prefix.val[w]&(1<<b) != 0) != oval {
				return []Expr{e}
			}
			continue
		}
		// e is wild here: the half with the opposite value survives.
		surv := cloneExpr(prefix)
		surv.setBit(i, !oval)
		out = append(out, surv)
		prefix = cloneExpr(prefix)
		prefix.setBit(i, oval)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	return Expr{
		nbits: e.nbits,
		val:   append([]uint64(nil), e.val...),
		wild:  append([]uint64(nil), e.wild...),
	}
}

// String renders the expression as a ternary string, MSB of byte 0 first.
func (e Expr) String() string {
	out := make([]byte, e.nbits)
	for i := 0; i < e.nbits; i++ {
		w, b := i/64, uint(i%64)
		switch {
		case e.wild[w]&(1<<b) != 0:
			out[i] = '*'
		case e.val[w]&(1<<b) != 0:
			out[i] = '1'
		default:
			out[i] = '0'
		}
	}
	return string(out)
}
