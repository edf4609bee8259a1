// Package header models the filtered packet header as a fixed-width bit
// vector with named fields.
//
// AP Classifier (like AP Verifier) only reasons about the header bits that
// some forwarding table or ACL in the network evaluates. A Layout declares
// those bits once; bit i of the layout is BDD variable i, most significant
// bit of each field first. Packets are plain byte slices in the same bit
// order so that a BDD can be evaluated against a packet without any
// unpacking (see bdd.EvalBits).
package header

import (
	"fmt"
	"strings"
)

// Field is a named contiguous bit range within the filtered header.
type Field struct {
	Name   string
	Offset int // first bit, equals the BDD variable of the field's MSB
	Width  int // in bits, at most 64
}

// Layout is an ordered set of non-overlapping fields covering the filtered
// header. The zero Layout is invalid; use NewLayout.
type Layout struct {
	fields []Field
	byName map[string]int
	bits   int
}

// NewLayout builds a layout from fields laid out back to back in the given
// order. Field offsets are assigned automatically.
func NewLayout(fields ...Field) *Layout {
	l := &Layout{byName: make(map[string]int, len(fields))}
	off := 0
	for _, f := range fields {
		if f.Width <= 0 || f.Width > 64 {
			panic(fmt.Sprintf("header: field %q has invalid width %d", f.Name, f.Width))
		}
		if _, dup := l.byName[f.Name]; dup {
			panic(fmt.Sprintf("header: duplicate field %q", f.Name))
		}
		f.Offset = off
		l.byName[f.Name] = len(l.fields)
		l.fields = append(l.fields, f)
		off += f.Width
	}
	l.bits = off
	return l
}

// IPv4Dst is the minimal layout used by pure-routing networks such as
// Internet2: forwarding decisions depend only on the 32-bit destination.
var IPv4Dst = NewLayout(Field{Name: "dstIP", Width: 32})

// FiveTuple is the 104-bit layout used by networks whose ACLs filter on the
// classic 5-tuple, such as the Stanford backbone.
var FiveTuple = NewLayout(
	Field{Name: "srcIP", Width: 32},
	Field{Name: "dstIP", Width: 32},
	Field{Name: "srcPort", Width: 16},
	Field{Name: "dstPort", Width: 16},
	Field{Name: "proto", Width: 8},
)

// Bits reports the total number of filtered header bits (= BDD variables).
func (l *Layout) Bits() int { return l.bits }

// Bytes reports the packet length in bytes (Bits rounded up).
func (l *Layout) Bytes() int { return (l.bits + 7) / 8 }

// FieldByName returns the named field. The second result is false if the
// layout has no such field.
func (l *Layout) FieldByName(name string) (Field, bool) {
	i, ok := l.byName[name]
	if !ok {
		return Field{}, false
	}
	return l.fields[i], true
}

// MustField returns the named field or panics; for static layouts.
func (l *Layout) MustField(name string) Field {
	f, ok := l.FieldByName(name)
	if !ok {
		panic(fmt.Sprintf("header: no field %q", name))
	}
	return f
}

// Packet is a filtered packet header in layout bit order.
type Packet []byte

// NewPacket returns an all-zero packet sized for the layout.
func (l *Layout) NewPacket() Packet { return make(Packet, l.Bytes()) }

// Set stores value into the named field of p.
func (l *Layout) Set(p Packet, name string, value uint64) {
	f := l.MustField(name)
	SetBits(p, f.Offset, f.Width, value)
}

// Get extracts the named field from p.
func (l *Layout) Get(p Packet, name string) uint64 {
	f := l.MustField(name)
	return GetBits(p, f.Offset, f.Width)
}

// String renders the packet field by field, e.g. "dstIP=0a000001".
func (l *Layout) String(p Packet) string {
	var b strings.Builder
	for i, f := range l.fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%0*x", f.Name, (f.Width+3)/4, GetBits(p, f.Offset, f.Width))
	}
	return b.String()
}

// SetBits writes the low `width` bits of value into p at bit offset,
// MSB first.
func SetBits(p Packet, offset, width int, value uint64) {
	for i := 0; i < width; i++ {
		bit := offset + i
		mask := byte(0x80 >> uint(bit%8))
		if value&(1<<uint(width-1-i)) != 0 {
			p[bit/8] |= mask
		} else {
			p[bit/8] &^= mask
		}
	}
}

// GetBits reads `width` bits of p at bit offset, MSB first.
func GetBits(p Packet, offset, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		bit := offset + i
		v <<= 1
		if p[bit/8]&(0x80>>uint(bit%8)) != 0 {
			v |= 1
		}
	}
	return v
}

// FormatIPv4 renders a 32-bit value in dotted-quad form, for diagnostics.
func FormatIPv4(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
