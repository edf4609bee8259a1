package network

import (
	"slices"

	"apclassifier/internal/aptree"
)

// Wiring binds the topology's predicate slots to predicate IDs for one
// classifier epoch: each box's ingress ACL and, per port, the forwarding
// predicate and the egress ACL (NoPred where a slot is empty). The owner
// publishes it with the tree (aptree.Tx.SetData) and a walk reads it
// from the snapshot it is pinned to (WiringOf), so every membership bit
// is tested against the wiring of the leaf's own epoch. It carries no
// liveness probe: whoever removes a predicate unwires its ID in the same
// update, so a walk only ever tests IDs live in its epoch.
//
// A Wiring is immutable once published. A writer derives the next one
// with Next, which shares every box's row with its parent; the first Set
// on a row copies it, so a rule change copies only the rows of the boxes
// it rewires.
type Wiring struct {
	// Seq is the sequence number of the last applied sequenced rule-delta
	// batch (0 if none): the cursor a redelivered batch is compared
	// against and a checkpoint records.
	Seq   uint64
	boxes []wiredBox
	// shared[b] is set while row b still belongs to the parent wiring.
	shared []bool
}

type wiredBox struct {
	inACL int32
	ports []wiredPort
}

type wiredPort struct{ fwd, outACL int32 }

// NewWiring returns an empty wiring (every slot NoPred) for boxes with
// the given port counts.
func NewWiring(numPorts []int) *Wiring {
	w := &Wiring{boxes: make([]wiredBox, len(numPorts))}
	for b, n := range numPorts {
		w.boxes[b] = wiredBox{inACL: NoPred, ports: make([]wiredPort, n)}
		for p := range w.boxes[b].ports {
			w.boxes[b].ports[p] = wiredPort{NoPred, NoPred}
		}
	}
	return w
}

// WiringOf returns the wiring published with epoch s, or nil if its
// owner never set one.
func WiringOf(s *aptree.Snapshot) *Wiring {
	w, _ := s.Data().(*Wiring)
	return w
}

// Next returns a successor of w for the next epoch: same cursor, every
// row shared until a Set copies it.
func (w *Wiring) Next() *Wiring {
	shared := make([]bool, len(w.boxes))
	for b := range shared {
		shared[b] = true
	}
	return &Wiring{Seq: w.Seq, boxes: slices.Clone(w.boxes), shared: shared}
}

// own returns box b's row for writing, copying it first if it is still
// the parent's.
func (w *Wiring) own(b int) *wiredBox {
	if w.shared != nil && w.shared[b] {
		w.boxes[b].ports = slices.Clone(w.boxes[b].ports)
		w.shared[b] = false
	}
	return &w.boxes[b]
}

// NumBoxes reports how many boxes the wiring covers.
func (w *Wiring) NumBoxes() int { return len(w.boxes) }

// NumPorts reports box b's port count.
func (w *Wiring) NumPorts(b int) int { return len(w.boxes[b].ports) }

// InACL returns the predicate ID of box b's ingress ACL.
func (w *Wiring) InACL(b int) int32 { return w.boxes[b].inACL }

// Fwd returns the predicate ID of box b's port-p forwarding predicate:
// the packets the box's table sends to that port (NoPred: never).
func (w *Wiring) Fwd(b, p int) int32 { return w.boxes[b].ports[p].fwd }

// OutACL returns the predicate ID of box b's port-p egress ACL.
func (w *Wiring) OutACL(b, p int) int32 { return w.boxes[b].ports[p].outACL }

// SetInACL wires box b's ingress ACL to id. Only an unpublished wiring
// may be set.
func (w *Wiring) SetInACL(b int, id int32) { w.own(b).inACL = id }

// SetFwd wires box b's port-p forwarding predicate to id. Only an
// unpublished wiring may be set.
func (w *Wiring) SetFwd(b, p int, id int32) { w.own(b).ports[p].fwd = id }

// SetOutACL wires box b's port-p egress ACL to id. Only an unpublished
// wiring may be set.
func (w *Wiring) SetOutACL(b, p int, id int32) { w.own(b).ports[p].outACL = id }
