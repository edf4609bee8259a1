package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
)

// Decode reads one checkpoint file and rebuilds a publishable manager.
// It validates everything it touches — CRCs, counts, indices, the BDD
// stream's own invariants, and the tree structure via
// aptree.RestoreTree — and returns a typed error (never panicking, never
// allocating more than the input can justify) on any defect. A
// successful Decode has already republished a ready Snapshot: the
// returned manager answers queries immediately.
func Decode(r io.Reader) (*Restored, error) {
	start := time.Now()
	res, err := decode(r)
	if err != nil {
		mCorrupt.Inc()
		return nil, err
	}
	mRestores.Inc()
	mRestoreDur.Record(time.Since(start).Seconds())
	return res, nil
}

func decode(r io.Reader) (*Restored, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic", ErrTruncated)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading format version", ErrTruncated)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build speaks v%d", ErrBadVersion, version, FormatVersion)
	}

	payloads := make(map[string][]byte, len(sectionOrder))
	for _, name := range sectionOrder {
		p, err := readSection(br, name)
		if err != nil {
			return nil, err
		}
		payloads[name] = p
	}
	if len(payloads["END "]) != 0 {
		return nil, fmt.Errorf("%w: END section carries %d payload bytes", ErrMalformed, len(payloads["END "]))
	}

	// META
	meta := &cursor{section: "META", b: payloads["META"]}
	epoch, err := meta.u64()
	if err != nil {
		return nil, err
	}
	methodU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	if methodU > uint32(aptree.MethodOAPT) {
		return nil, fmt.Errorf("%w: unknown construction method %d", ErrMalformed, methodU)
	}
	numVarsU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	numPredsU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	nextAtomU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	seq, err := meta.u64()
	if err != nil {
		return nil, err
	}
	if err := meta.done(); err != nil {
		return nil, err
	}
	numPreds := int(numPredsU)
	nextAtom := int32(nextAtomU)
	if nextAtom < 0 {
		return nil, fmt.Errorf("%w: atom bound %d overflows int32", ErrMalformed, nextAtomU)
	}

	// DSET
	ds, err := netgen.Read(bytes.NewReader(payloads["DSET"]))
	if err != nil {
		return nil, fmt.Errorf("%w: embedded dataset: %v", ErrMalformed, err)
	}
	if ds.Layout.Bits() != int(numVarsU) {
		return nil, fmt.Errorf("%w: dataset layout has %d header bits, META says %d",
			ErrMalformed, ds.Layout.Bits(), numVarsU)
	}

	// PRED
	predBits := payloads["PRED"]
	if len(predBits) != (numPreds+7)/8 {
		return nil, fmt.Errorf("%w: liveness bitset is %d bytes for %d predicates",
			ErrMalformed, len(predBits), numPreds)
	}
	live := make([]bool, numPreds)
	for id := range live {
		live[id] = predBits[id/8]&(1<<uint(id%8)) != 0
	}

	// TREE structure first: its leaf count fixes how many BDD roots the
	// BDDS section must carry beyond the predicate slots.
	root, numLeaves, leafAt, err := decodeTree(payloads["TREE"])
	if err != nil {
		return nil, err
	}

	// BDDS
	d := bdd.New(int(numVarsU))
	roots, err := d.Load(bytes.NewReader(payloads["BDDS"]))
	if err != nil {
		return nil, fmt.Errorf("%w: BDD store: %v", ErrMalformed, err)
	}
	if len(roots) != numPreds+numLeaves {
		return nil, fmt.Errorf("%w: BDD store has %d roots, need %d predicates + %d leaves",
			ErrMalformed, len(roots), numPreds, numLeaves)
	}
	preds := roots[:numPreds]
	for id, p := range preds {
		if !live[id] && p != bdd.False {
			return nil, fmt.Errorf("%w: dead predicate slot %d still carries a BDD: tombstoned (lazily deleted) predicates are no longer supported",
				ErrMalformed, id)
		}
	}
	for i, leaf := range leafAt {
		leaf.BDD = roots[numPreds+i]
	}

	// TOPO
	wiring, err := decodeTopo(payloads["TOPO"], ds, live)
	if err != nil {
		return nil, err
	}
	wiring.Seq = seq

	// Assemble. RestoreTree re-validates the structure (atom IDs against
	// the META bound, predicate routing against the slots, shape) and
	// re-establishes depths, leaf retentions and visit counters.
	reg, err := aptree.RestoreRegistry(preds, live)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	tree, err := aptree.RestoreTree(d, root, preds, nextAtom)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	m := aptree.NewRestoredManager(d, reg, tree, aptree.Method(methodU), epoch, wiring)
	return &Restored{
		Manager: m,
		Dataset: ds,
		Method:  aptree.Method(methodU),
		Epoch:   epoch,
	}, nil
}

// decodeTree parses the TREE section into an unlinked node structure:
// records reference children by index, every non-root node must be
// referenced exactly once, and the whole array must be reachable from
// record 0 — together that is exactly "a binary tree", checked without
// recursion so hostile deep inputs cannot exhaust the stack. Leaf BDD
// refs are left zero for the caller to fill from the BDDS roots, in the
// order leaves appear in the record array.
func decodeTree(payload []byte) (root *aptree.Node, numLeaves int, leafAt []*aptree.Node, err error) {
	c := &cursor{section: "TREE", b: payload}
	countU, err := c.u32()
	if err != nil {
		return nil, 0, nil, err
	}
	leavesU, err := c.u32()
	if err != nil {
		return nil, 0, nil, err
	}
	// Every record is at least 5 bytes, so the payload bounds the count
	// before any allocation proportional to it.
	if int64(countU)*5 > int64(c.remaining()) {
		return nil, 0, nil, fmt.Errorf("%w: TREE promises %d records in %d bytes", ErrMalformed, countU, c.remaining())
	}
	count := int(countU)
	if count == 0 {
		return nil, 0, nil, fmt.Errorf("%w: TREE has no records", ErrMalformed)
	}
	nodes := make([]*aptree.Node, count)
	type childRef struct{ t, f uint32 }
	children := make([]childRef, count)
	for i := 0; i < count; i++ {
		tag, err := c.u8()
		if err != nil {
			return nil, 0, nil, err
		}
		switch tag {
		case 0: // internal
			pred, err := c.i32()
			if err != nil {
				return nil, 0, nil, err
			}
			t, err := c.u32()
			if err != nil {
				return nil, 0, nil, err
			}
			f, err := c.u32()
			if err != nil {
				return nil, 0, nil, err
			}
			if pred < 0 {
				return nil, 0, nil, fmt.Errorf("%w: TREE record %d: negative predicate %d", ErrMalformed, i, pred)
			}
			nodes[i] = &aptree.Node{Pred: pred}
			children[i] = childRef{t, f}
		case 1: // leaf
			atom, err := c.i32()
			if err != nil {
				return nil, 0, nil, err
			}
			words, err := c.u32()
			if err != nil {
				return nil, 0, nil, err
			}
			if int64(words)*8 > int64(c.remaining()) {
				return nil, 0, nil, fmt.Errorf("%w: TREE record %d: %d membership words exceed payload", ErrMalformed, i, words)
			}
			member := make([]uint64, words)
			for w := range member {
				if member[w], err = c.u64(); err != nil {
					return nil, 0, nil, err
				}
			}
			nodes[i] = &aptree.Node{Pred: -1, AtomID: atom, Member: predicate.Bitset(member)}
			leafAt = append(leafAt, nodes[i])
			numLeaves++
		default:
			return nil, 0, nil, fmt.Errorf("%w: TREE record %d: unknown tag %d", ErrMalformed, i, tag)
		}
	}
	if err := c.done(); err != nil {
		return nil, 0, nil, err
	}
	if numLeaves != int(leavesU) {
		return nil, 0, nil, fmt.Errorf("%w: TREE header promises %d leaves, records hold %d", ErrMalformed, leavesU, numLeaves)
	}

	// Link and prove tree-ness: indices in range, no node referenced
	// twice, root referenced never, and everything reachable from 0
	// (single-parent alone admits cycles in unreachable components).
	refCount := make([]uint8, count)
	for i, n := range nodes {
		if n.IsLeaf() {
			continue
		}
		cr := children[i]
		for _, idx := range []uint32{cr.t, cr.f} {
			if int(idx) >= count {
				return nil, 0, nil, fmt.Errorf("%w: TREE record %d: child index %d out of range [0,%d)", ErrMalformed, i, idx, count)
			}
			if idx == 0 {
				return nil, 0, nil, fmt.Errorf("%w: TREE record %d references the root", ErrMalformed, i)
			}
			if refCount[idx] != 0 {
				return nil, 0, nil, fmt.Errorf("%w: TREE record %d referenced twice", ErrMalformed, idx)
			}
			refCount[idx]++
		}
		n.T = nodes[cr.t]
		n.F = nodes[cr.f]
	}
	reached := 0
	stack := []int{0}
	seen := make([]bool, count)
	seen[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		if !nodes[i].IsLeaf() {
			cr := children[i]
			for _, idx := range []uint32{cr.t, cr.f} {
				if !seen[idx] {
					seen[idx] = true
					stack = append(stack, int(idx))
				}
			}
		}
	}
	if reached != count {
		return nil, 0, nil, fmt.Errorf("%w: TREE has %d records but only %d reachable from the root", ErrMalformed, count, reached)
	}
	return nodes[0], numLeaves, leafAt, nil
}

// decodeTopo parses the TOPO section and validates it against the
// decoded dataset (box and port counts must match) and the predicate ID
// space (-1 or a live slot: stage 2 tests a wired ID's membership bit
// without asking whether the slot is dead).
func decodeTopo(payload []byte, ds *netgen.Dataset, live []bool) (*network.Wiring, error) {
	c := &cursor{section: "TOPO", b: payload}
	boxesU, err := c.u32()
	if err != nil {
		return nil, err
	}
	if int(boxesU) != len(ds.Boxes) {
		return nil, fmt.Errorf("%w: TOPO wires %d boxes, dataset has %d", ErrMalformed, boxesU, len(ds.Boxes))
	}
	checkID := func(what string, box int, id int32) error {
		if id < -1 || int(id) >= len(live) {
			return fmt.Errorf("%w: TOPO box %d: %s predicate %d out of range [-1,%d)", ErrMalformed, box, what, id, len(live))
		}
		if id >= 0 && !live[id] {
			return fmt.Errorf("%w: TOPO box %d: %s wired to dead predicate %d", ErrMalformed, box, what, id)
		}
		return nil
	}
	numPorts := make([]int, len(ds.Boxes))
	for b := range numPorts {
		numPorts[b] = ds.Boxes[b].NumPorts
	}
	wiring := network.NewWiring(numPorts)
	// slot reads one wired ID and checks it against the ID space.
	slot := func(what string, b int) (int32, error) {
		id, err := c.i32()
		if err != nil {
			return 0, err
		}
		return id, checkID(what, b, id)
	}
	for b := range numPorts {
		inACL, err := slot("ingress ACL", b)
		if err != nil {
			return nil, err
		}
		wiring.SetInACL(b, inACL)
		portsU, err := c.u32()
		if err != nil {
			return nil, err
		}
		if int(portsU) != numPorts[b] {
			return nil, fmt.Errorf("%w: TOPO box %d wires %d ports, dataset has %d", ErrMalformed, b, portsU, numPorts[b])
		}
		for p := 0; p < numPorts[b]; p++ {
			fwd, err := slot("forwarding", b)
			if err != nil {
				return nil, err
			}
			out, err := slot("egress ACL", b)
			if err != nil {
				return nil, err
			}
			wiring.SetFwd(b, p, fwd)
			wiring.SetOutACL(b, p, out)
		}
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return wiring, nil
}

// SelfCheck cross-validates the restored classifier state against
// itself: for n random headers, the leaf found by tree search must
// carry membership bits that agree with direct BDD evaluation of every
// predicate slot (a dead slot is bdd.False and its bit clear). It is the
// semantic half of `apstate verify` — the structural half being that
// Decode succeeded at all.
func (r *Restored) SelfCheck(n int, seed int64) error {
	snap := r.Manager.Snapshot()
	view := snap.View()
	tree := snap.Tree()
	rng := rand.New(rand.NewSource(seed))
	pkt := make([]byte, (view.NumVars()+7)/8)
	for i := 0; i < n; i++ {
		for b := range pkt {
			pkt[b] = byte(rng.Intn(256))
		}
		leaf, _ := snap.Classify(pkt)
		for id := int32(0); id < int32(tree.NumPreds()); id++ {
			if leaf.Member.Get(int(id)) != view.EvalBits(tree.Pred(id), pkt) {
				return fmt.Errorf("checkpoint: self-check: packet %x: leaf membership bit %d disagrees with predicate BDD", pkt, id)
			}
		}
	}
	return nil
}

// Info summarizes a checkpoint file without building classifier state.
type Info struct {
	FormatVersion uint16
	Epoch         uint64
	DeltaSeq      uint64
	Method        aptree.Method
	NumVars       int
	NumPreds      int
	NumLive       int
	NumTreeNodes  int
	NumLeaves     int
	DatasetName   string
	SectionBytes  map[string]int
}

// Inspect parses and CRC-checks every section and decodes the cheap
// headers (META, PRED counts, TREE counts, dataset name) — the
// `apstate inspect` backend. It does not construct BDDs or the tree;
// use Decode (or apstate verify) for full validation.
func Inspect(r io.Reader) (*Info, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic", ErrTruncated)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic)
	}
	info := &Info{SectionBytes: make(map[string]int, len(sectionOrder))}
	if err := binary.Read(br, binary.LittleEndian, &info.FormatVersion); err != nil {
		return nil, fmt.Errorf("%w: reading format version", ErrTruncated)
	}
	if info.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build speaks v%d", ErrBadVersion, info.FormatVersion, FormatVersion)
	}
	payloads := make(map[string][]byte, len(sectionOrder))
	for _, name := range sectionOrder {
		p, err := readSection(br, name)
		if err != nil {
			return nil, err
		}
		payloads[name] = p
		info.SectionBytes[name] = len(p)
	}
	meta := &cursor{section: "META", b: payloads["META"]}
	var err error
	if info.Epoch, err = meta.u64(); err != nil {
		return nil, err
	}
	methodU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	info.Method = aptree.Method(methodU)
	numVarsU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	info.NumVars = int(numVarsU)
	numPredsU, err := meta.u32()
	if err != nil {
		return nil, err
	}
	info.NumPreds = int(numPredsU)
	if _, err := meta.u32(); err != nil { // atom bound, not summarized
		return nil, err
	}
	if info.DeltaSeq, err = meta.u64(); err != nil {
		return nil, err
	}
	for _, b := range payloads["PRED"] {
		for ; b != 0; b &= b - 1 {
			info.NumLive++
		}
	}
	tc := &cursor{section: "TREE", b: payloads["TREE"]}
	nodesU, err := tc.u32()
	if err != nil {
		return nil, err
	}
	leavesU, err := tc.u32()
	if err != nil {
		return nil, err
	}
	info.NumTreeNodes = int(nodesU)
	info.NumLeaves = int(leavesU)
	if ds, err := netgen.Read(bytes.NewReader(payloads["DSET"])); err == nil {
		info.DatasetName = ds.Name
	}
	return info, nil
}

// IsDecodeError reports whether err is one of the checkpoint decode
// sentinels — the distinction Dir.Restore uses to fall back to an older
// checkpoint (decode failures) versus failing outright (I/O errors).
func IsDecodeError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMalformed)
}
