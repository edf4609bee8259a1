package bdd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// serialization format: a little-endian binary stream
//
//	magic "BDD1" | numVars uint32 | numNodes uint32 | numRoots uint32
//	nodes: (level uint32, low uint32, high uint32) in topological order
//	roots: uint32 indices into the stream's node numbering
//
// Node 0 and 1 are the terminals and are not written. Stream node i
// (i ≥ 2) may only reference nodes < i.

const magic = "BDD1"

// Typed stream errors. Load wraps each with positional detail; callers
// match with errors.Is. The distinctions matter operationally: a
// truncated stream is a partial write or disk fault, a malformed one is
// corruption or an attack, and a variable-count mismatch is a
// configuration error (wrong layout for the checkpoint being loaded).
var (
	// ErrBadMagic means the stream does not start with the BDD1 marker.
	ErrBadMagic = errors.New("bdd: bad magic")
	// ErrTruncated means the stream ended inside a record the header
	// promised: an io.EOF or io.ErrUnexpectedEOF mid-structure.
	ErrTruncated = errors.New("bdd: truncated stream")
	// ErrMalformed means a structurally invalid record: out-of-range
	// levels or child refs, non-increasing levels along an edge, a
	// redundant node (low == high), or a root index past the node table.
	ErrMalformed = errors.New("bdd: malformed stream")
	// ErrVarMismatch means the stream was saved from a DD with a
	// different variable count than the one loading it.
	ErrVarMismatch = errors.New("bdd: variable count mismatch")
)

// Save writes the functions rooted at roots from the frozen view. Roots
// must have been retained (directly or transitively) when the view was
// frozen, per the View safety model; the checkpoint encoder uses this to
// serialize a published epoch without touching the live DD.
func (v *View) Save(w io.Writer, roots ...Ref) error {
	return saveNodes(v.nodes, v.numVars, w, roots)
}

// saveNodes is the shared encoder behind DD.Save and View.Save: nodes is
// either the live store or a frozen prefix of it.
func saveNodes(nodes []node, numVars int, w io.Writer, roots []Ref) error {
	bw := bufio.NewWriter(w)
	// Collect reachable nodes in child-before-parent order.
	index := map[Ref]uint32{False: 0, True: 1}
	var order []Ref
	var walk func(Ref)
	walk = func(f Ref) {
		if _, ok := index[f]; ok {
			return
		}
		n := nodes[f]
		walk(n.low)
		walk(n.high)
		index[f] = uint32(len(order) + 2)
		order = append(order, f)
	}
	for _, r := range roots {
		walk(r)
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := []uint32{uint32(numVars), uint32(len(order)), uint32(len(roots))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, f := range order {
		n := nodes[f]
		rec := []uint32{uint32(n.level), index[n.low], index[n.high]}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	for _, r := range roots {
		if err := binary.Write(bw, binary.LittleEndian, index[r]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readU32 reads one little-endian uint32, mapping stream exhaustion to
// ErrTruncated so callers (and their callers, transitively) can
// distinguish a short file from structural corruption.
func readU32(br *bufio.Reader, p *uint32) error {
	if err := binary.Read(br, binary.LittleEndian, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	return nil
}

// loadPrealloc caps the speculative allocation Load performs from the
// header's node count: a hostile 4-byte count must not translate into a
// multi-gigabyte slice before a single record is read. The ref table
// grows by append past this, bounded by actual input consumed.
const loadPrealloc = 1 << 16

// Load reads functions previously written by Save into d, which must have
// the same variable count, and returns the roots in stream order. Loaded
// nodes are canonicalized against d's existing nodes (structural sharing
// with what is already there).
//
// Load validates the stream defensively — it is also the decode path for
// checkpoint files — and returns an error wrapping ErrBadMagic,
// ErrTruncated, ErrMalformed or ErrVarMismatch rather than building bad
// state: child refs must precede their parent, levels must strictly
// increase along edges, and no record may encode a redundant node. On
// error the DD may hold already-loaded (canonical, well-formed) nodes;
// they are unreachable garbage unless retained and are reclaimed by the
// next GC.
func (d *DD) Load(r io.Reader) ([]Ref, error) {
	br := bufio.NewReader(r)
	got := make([]byte, 4)
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, got)
	}
	var numVars, numNodes, numRoots uint32
	for _, p := range []*uint32{&numVars, &numNodes, &numRoots} {
		if err := readU32(br, p); err != nil {
			return nil, fmt.Errorf("%w: in header", err)
		}
	}
	if int(numVars) != d.numVars {
		return nil, fmt.Errorf("%w: stream has %d variables, DD has %d", ErrVarMismatch, numVars, d.numVars)
	}
	prealloc := int(numNodes) + 2
	if prealloc > loadPrealloc {
		prealloc = loadPrealloc
	}
	refs := make([]Ref, 2, prealloc)
	refs[0], refs[1] = False, True
	for i := uint32(0); i < numNodes; i++ {
		var level, lo, hi uint32
		for _, p := range []*uint32{&level, &lo, &hi} {
			if err := readU32(br, p); err != nil {
				return nil, fmt.Errorf("%w: in node record %d of %d", err, i, numNodes)
			}
		}
		if int(level) >= d.numVars {
			return nil, fmt.Errorf("%w: node %d level %d out of range [0,%d)", ErrMalformed, i, level, d.numVars)
		}
		if lo >= i+2 || hi >= i+2 {
			return nil, fmt.Errorf("%w: node %d forward child ref %d/%d (max %d)", ErrMalformed, i, lo, hi, i+1)
		}
		if lo == hi {
			return nil, fmt.Errorf("%w: node %d is redundant (low == high == %d)", ErrMalformed, i, lo)
		}
		// Ordered BDD invariant: levels strictly increase toward the
		// terminals (which sit at level numVars). A violating stream
		// would still canonicalize into *some* DAG via mk, but not the
		// function Save encoded — reject it instead.
		if d.nodes[refs[lo]].level <= int32(level) || d.nodes[refs[hi]].level <= int32(level) {
			return nil, fmt.Errorf("%w: node %d level %d not above child levels %d/%d",
				ErrMalformed, i, level, d.nodes[refs[lo]].level, d.nodes[refs[hi]].level)
		}
		refs = append(refs, d.mk(int32(level), refs[lo], refs[hi]))
	}
	roots := make([]Ref, 0, minInt(int(numRoots), loadPrealloc))
	for i := uint32(0); i < numRoots; i++ {
		var idx uint32
		if err := readU32(br, &idx); err != nil {
			return nil, fmt.Errorf("%w: in root record %d of %d", err, i, numRoots)
		}
		if int(idx) >= len(refs) {
			return nil, fmt.Errorf("%w: root index %d out of range [0,%d)", ErrMalformed, idx, len(refs))
		}
		roots = append(roots, refs[idx])
	}
	return roots, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
