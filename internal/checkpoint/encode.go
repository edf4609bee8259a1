package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
)

// ErrMiddlebox is wrapped by the error Encode returns for an epoch that
// hosts a middlebox. The format has no section for middleboxes, and a
// checkpoint without them would restore a different data plane.
var ErrMiddlebox = errors.New("checkpoint: the format does not hold middleboxes")

// Encode writes src as one checkpoint file. The BDD payload is
// serialized through the snapshot's frozen view, so encoding never
// touches the live DD: queries and updates proceed concurrently and the
// bytes describe exactly the pinned epoch. An epoch hosting a middlebox
// is refused with ErrMiddlebox before anything is written.
func Encode(w io.Writer, src *Source) error {
	if src.Snap == nil || src.Dataset == nil {
		return fmt.Errorf("checkpoint: encode needs a snapshot and a dataset")
	}
	wiring := network.WiringOf(src.Snap)
	if wiring == nil {
		return fmt.Errorf("checkpoint: encode needs a snapshot that carries its wiring")
	}
	if b := wiring.FirstMiddlebox(); b >= 0 {
		return fmt.Errorf("%w: box %q hosts one", ErrMiddlebox, src.Dataset.Boxes[b].Name)
	}
	tree := src.Snap.Tree()
	numPreds := tree.NumPreds()

	// One preorder walk fixes the node numbering shared by the TREE
	// section and the BDDS root order: records reference children by
	// index, and the leaf atoms' BDD roots follow the predicate roots in
	// the order the leaves appear here.
	var nodes []*aptree.Node
	index := map[*aptree.Node]int{}
	stack := []*aptree.Node{tree.Root()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		index[n] = len(nodes)
		nodes = append(nodes, n)
		if !n.IsLeaf() {
			stack = append(stack, n.F, n.T) // T pops first: preorder T-then-F
		}
	}

	roots := make([]bdd.Ref, 0, numPreds+tree.NumLeaves())
	for id := int32(0); id < int32(numPreds); id++ {
		roots = append(roots, tree.Pred(id))
	}
	numLeaves := 0
	for _, n := range nodes {
		if n.IsLeaf() {
			roots = append(roots, n.BDD)
			numLeaves++
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, FormatVersion); err != nil {
		return err
	}

	var meta sectionWriter
	meta.u64(src.Snap.Version())
	meta.u32(uint32(src.Method))
	meta.u32(uint32(src.Snap.View().NumVars()))
	meta.u32(uint32(numPreds))
	meta.u32(uint32(tree.NextAtom()))
	meta.u64(wiring.Seq)
	if err := writeSection(bw, "META", meta.b); err != nil {
		return err
	}

	var dset bytes.Buffer
	if err := src.Dataset.Write(&dset); err != nil {
		return err
	}
	if err := writeSection(bw, "DSET", dset.Bytes()); err != nil {
		return err
	}

	pred := make([]byte, (numPreds+7)/8)
	for id := int32(0); id < int32(numPreds); id++ {
		if src.Snap.IsLive(id) {
			pred[id/8] |= 1 << uint(id%8)
		}
	}
	if err := writeSection(bw, "PRED", pred); err != nil {
		return err
	}

	var bdds bytes.Buffer
	if err := src.Snap.View().Save(&bdds, roots...); err != nil {
		return err
	}
	if err := writeSection(bw, "BDDS", bdds.Bytes()); err != nil {
		return err
	}

	var trec sectionWriter
	trec.u32(uint32(len(nodes)))
	trec.u32(uint32(numLeaves))
	for _, n := range nodes {
		if n.IsLeaf() {
			trec.u8(1)
			trec.u32(uint32(n.AtomID))
			trec.u32(uint32(len(n.Member)))
			for _, word := range n.Member {
				trec.u64(word)
			}
		} else {
			trec.u8(0)
			trec.u32(uint32(n.Pred))
			trec.u32(uint32(index[n.T]))
			trec.u32(uint32(index[n.F]))
		}
	}
	if err := writeSection(bw, "TREE", trec.b); err != nil {
		return err
	}

	var topo sectionWriter
	topo.u32(uint32(wiring.NumBoxes()))
	for b := 0; b < wiring.NumBoxes(); b++ {
		topo.i32(wiring.InACL(b))
		topo.u32(uint32(wiring.NumPorts(b)))
		for p := 0; p < wiring.NumPorts(b); p++ {
			topo.i32(wiring.Fwd(b, p))
			topo.i32(wiring.OutACL(b, p))
		}
	}
	if err := writeSection(bw, "TOPO", topo.b); err != nil {
		return err
	}

	if err := writeSection(bw, "END ", nil); err != nil {
		return err
	}
	return bw.Flush()
}
