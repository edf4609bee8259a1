// Package network models the topology — boxes, ports, links, hosts — and
// implements stage 2 of AP Classifier: computing the network-wide behavior
// of a packet from its atomic predicate (§IV-B).
//
// Stage 2 never evaluates a BDD. Every port's forwarding predicate and
// every ACL is identified by a global predicate ID; the atomic predicate
// found in stage 1 carries a membership bit per predicate ID, so deciding
// whether a box forwards the packet to a port is two bit tests. That is why
// the paper measures stage 2 at 10M+ packets per second and spends all its
// optimization effort on stage 1.
//
// The Network is the topology that never changes after setup: names,
// peers, hosts and middleboxes. Which predicate ID each slot tests is the
// epoch's Wiring, published with the tree; a walk reads it from the
// snapshot its leaf came from.
package network

import (
	"fmt"
	"slices"
	"strings"

	"apclassifier/internal/aptree"
)

// NoPred marks an absent predicate reference (no ACL on a port, or a port
// with no forwarding predicate).
const NoPred int32 = -1

// DestKind tells what a port's far end is.
type DestKind int

// Port destination kinds.
const (
	DestNone DestKind = iota // unconnected port: forwarded packets vanish
	DestBox                  // inter-box link
	DestHost                 // attachment to an end host
)

// Dest is the far end of a port.
type Dest struct {
	Kind DestKind
	Box  int    // valid for DestBox
	Port int    // ingress port index on the peer box, valid for DestBox
	Host string // valid for DestHost
}

// Port is an output port of a box.
type Port struct {
	Name string
	Peer Dest
}

// Box is a packet-forwarding device: router, switch, or middlebox host.
type Box struct {
	Name  string
	Ports []Port
	// MB, if non-nil, is a header-modifying middlebox traversed by every
	// packet entering the box before forwarding (§V-E).
	MB *Middlebox
}

// Network is a directed graph of boxes.
type Network struct {
	Boxes []*Box
	// MaxHops bounds traversal (0 means 4×boxes+16).
	MaxHops int
}

// New returns an empty network.
func New() *Network { return &Network{} }

// AddBox appends a box with the given number of ports and returns its ID.
func (n *Network) AddBox(name string, numPorts int) int {
	b := &Box{Name: name}
	for i := 0; i < numPorts; i++ {
		b.Ports = append(b.Ports, Port{Name: fmt.Sprintf("%s.%d", name, i)})
	}
	n.Boxes = append(n.Boxes, b)
	return len(n.Boxes) - 1
}

// Link connects port pa of box a to port pb of box b, bidirectionally.
func (n *Network) Link(a, pa, b, pb int) {
	n.Boxes[a].Ports[pa].Peer = Dest{Kind: DestBox, Box: b, Port: pb}
	n.Boxes[b].Ports[pb].Peer = Dest{Kind: DestBox, Box: a, Port: pa}
}

// AttachHost declares that port p of box b faces the named host.
func (n *Network) AttachHost(b, p int, host string) {
	n.Boxes[b].Ports[p].Peer = Dest{Kind: DestHost, Host: host}
}

// BoxByName finds a box ID by name (-1 if absent).
func (n *Network) BoxByName(name string) int {
	for i, b := range n.Boxes {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// DropReason explains why a traversal branch ended without delivery.
type DropReason string

// Drop reasons.
const (
	DropNoRoute   DropReason = "no matching output port"
	DropInACL     DropReason = "denied by ingress ACL"
	DropOutACL    DropReason = "denied by egress ACL"
	DropDangling  DropReason = "forwarded out an unconnected port"
	DropLoop      DropReason = "forwarding loop detected"
	DropHopBudget DropReason = "hop budget exhausted"
	DropMiddlebox DropReason = "dropped by middlebox"
)

// Edge is one traversed link (or host delivery) in a behavior.
type Edge struct {
	Box  int
	Port int
	To   Dest
}

// DropEvent records a branch that ended in a drop.
type DropEvent struct {
	Box    int
	Reason DropReason
}

// Delivery records a branch that reached a host.
type Delivery struct {
	Host string
	Box  int
	Port int
}

// Behavior is the network-wide forwarding behavior of a packet: the tree of
// links it traverses from the ingress box, and how each branch ends.
type Behavior struct {
	Ingress    int
	Edges      []Edge
	Deliveries []Delivery
	Drops      []DropEvent
	// Rewrites counts middlebox header modifications applied.
	Rewrites int
	// Probabilistic is set when some middlebox entry was Type 3, so the
	// behavior is one of several possibilities (all are included).
	Probabilistic bool

	// nondet is set when the walk matched a middlebox entry whose outcome
	// is not a pure function of the packet's atomic predicate — Type 2
	// (payload-dependent) or Type 3 (probabilistic) entries (§V-E). Such
	// a behavior describes this packet only, not its whole atom, so the
	// per-epoch behavior cache must never store it.
	nondet bool
}

// Deterministic reports whether the behavior is a pure function of
// (ingress, atomic predicate): no Type-2 or Type-3 middlebox entry was
// matched during the walk. Only deterministic behaviors may be memoized
// per atom (§V-E).
func (b *Behavior) Deterministic() bool { return !b.nondet }

// Clone returns a deep copy whose slices do not alias b — how a behavior
// computed in Walker scratch is made durable before it is cached or
// returned from a batch.
func (b *Behavior) Clone() *Behavior {
	c := *b
	c.Edges = append([]Edge(nil), b.Edges...)
	c.Deliveries = append([]Delivery(nil), b.Deliveries...)
	c.Drops = append([]DropEvent(nil), b.Drops...)
	return &c
}

// Delivered reports whether any branch reached the named host (any host if
// name is empty).
func (b *Behavior) Delivered(name string) bool {
	for _, d := range b.Deliveries {
		if name == "" || d.Host == name {
			return true
		}
	}
	return false
}

// Traverses reports whether the behavior crosses the given box.
func (b *Behavior) Traverses(box int) bool {
	if b.Ingress == box && (len(b.Edges) > 0 || len(b.Deliveries) > 0 || len(b.Drops) > 0) {
		return true
	}
	for _, e := range b.Edges {
		if e.Box == box || (e.To.Kind == DestBox && e.To.Box == box) {
			return true
		}
	}
	return false
}

// Path returns the box sequence of a unicast behavior (panics on
// multicast). It includes the ingress box and, for delivered packets, ends
// at the delivery box. On a forwarding loop it ends at the box the walk
// revisited (where the DropLoop event sits): a unicast walk crosses each
// edge once, so len(b.Edges) steps always reach the end of the path.
func (b *Behavior) Path() []int {
	path := []int{b.Ingress}
	cur := b.Ingress
	for range b.Edges {
		next := -1
		for _, e := range b.Edges {
			if e.Box == cur && e.To.Kind == DestBox {
				if next >= 0 {
					panic("network: Path on multicast behavior")
				}
				next = e.To.Box
			}
		}
		if next < 0 {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// String renders the behavior compactly for logs and examples.
func (b *Behavior) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "ingress=%d edges=%d", b.Ingress, len(b.Edges))
	for _, d := range b.Deliveries {
		fmt.Fprintf(&s, " deliver:%s", d.Host)
	}
	for _, d := range b.Drops {
		fmt.Fprintf(&s, " drop@%d(%s)", d.Box, d.Reason)
	}
	if b.Rewrites > 0 {
		fmt.Fprintf(&s, " rewrites=%d", b.Rewrites)
	}
	return s.String()
}

// member tests a predicate bit; an unwired slot matches nothing.
func member(leaf *aptree.Node, id int32) bool {
	return id != NoPred && leaf.Member.Get(int(id))
}

// aclPasses evaluates an optional ACL predicate: an absent ACL passes
// everything.
func aclPasses(leaf *aptree.Node, id int32) bool {
	return id == NoPred || leaf.Member.Get(int(id))
}

// workItem is one traversal branch head.
type workItem struct {
	box  int
	pkt  []byte
	leaf *aptree.Node
	hops int
}

type visitKey struct {
	box  int
	leaf *aptree.Node
}

// Walker runs stage-2 traversals with reusable scratch space, avoiding the
// per-query allocations of Network.Behavior. A Walker is not safe for
// concurrent use; pool one per goroutine for hot query loops.
type Walker struct {
	n       *Network
	visited []visitKey
	queue   []workItem
	beh     Behavior
}

// NewWalker returns a reusable traverser for the network.
func NewWalker(n *Network) *Walker { return &Walker{n: n} }

// Behavior computes the packet's behavior like Network.Behavior, reusing
// internal buffers. The returned pointer aliases the Walker's scratch and
// is only valid until the next call.
func (w *Walker) Behavior(s *aptree.Snapshot, ingress int, pkt []byte, leaf *aptree.Node) *Behavior {
	w.visited = w.visited[:0]
	w.queue = w.queue[:0]
	w.beh = Behavior{
		Ingress:    ingress,
		Edges:      w.beh.Edges[:0],
		Deliveries: w.beh.Deliveries[:0],
		Drops:      w.beh.Drops[:0],
	}
	w.n.behaviorInto(s, ingress, pkt, leaf, &w.beh, &w.visited, &w.queue)
	return &w.beh
}

// Behavior computes the network-wide behavior of a packet that enters at
// the ingress box and was classified to leaf in epoch s. The whole walk —
// every membership test, against s's Wiring, and every reclassification
// after a middlebox rewrite — answers from s, so stage 1 and stage 2
// observe one epoch with no lock. pkt is needed only when the network
// contains middleboxes that rewrite headers; it may be nil otherwise.
func (n *Network) Behavior(s *aptree.Snapshot, ingress int, pkt []byte, leaf *aptree.Node) *Behavior {
	b := &Behavior{Ingress: ingress}
	var visited []visitKey
	var queue []workItem
	n.behaviorInto(s, ingress, pkt, leaf, b, &visited, &queue)
	return b
}

func (n *Network) behaviorInto(s *aptree.Snapshot, ingress int, pkt []byte, leaf *aptree.Node, b *Behavior, visitedp *[]visitKey, queuep *[]workItem) {
	wiring := WiringOf(s)
	maxHops := n.MaxHops
	if maxHops == 0 {
		maxHops = 4*len(n.Boxes) + 16
	}
	// Metrics are accumulated in locals and flushed once at the end; the
	// walk loop itself performs no atomic operations. Walker reuses b, so
	// deltas are taken against the lengths at entry.
	hops := 0
	startDeliveries, startDrops, startRewrites := len(b.Deliveries), len(b.Drops), b.Rewrites
	defer func() {
		mWalks.Inc()
		mHops.Add(uint64(hops))
		mDeliveries.Add(uint64(len(b.Deliveries) - startDeliveries))
		mRewrites.Add(uint64(b.Rewrites - startRewrites))
		for _, d := range b.Drops[startDrops:] {
			countDrop(d.Reason)
		}
	}()
	// The queue is drained with a head index, not by reslicing from the
	// front: the caller gets the slice back at full capacity, so a reused
	// Walker stops regrowing it. The visited set is a slice scanned
	// linearly: a walk crosses a handful of boxes, where a scan costs less
	// than a map's hash, assign and clear.
	queue := append(*queuep, workItem{box: ingress, pkt: pkt, leaf: leaf})
	visited := *visitedp
	defer func() { *queuep, *visitedp = queue[:0], visited[:0] }()
	for head := 0; head < len(queue); head++ {
		hops++
		w := queue[head]
		if w.hops > maxHops {
			b.Drops = append(b.Drops, DropEvent{w.box, DropHopBudget})
			continue
		}
		vk := visitKey{w.box, w.leaf}
		if slices.Contains(visited, vk) {
			b.Drops = append(b.Drops, DropEvent{w.box, DropLoop})
			continue
		}
		visited = append(visited, vk)
		box := n.Boxes[w.box]
		wired := &wiring.boxes[w.box]

		if !aclPasses(w.leaf, wired.inACL) {
			b.Drops = append(b.Drops, DropEvent{w.box, DropInACL})
			continue
		}

		// Middlebox processing happens before the box's own forwarding.
		heads := []workItem{w}
		if box.MB != nil {
			var ok bool
			heads, ok = box.MB.process(s, b, w)
			if !ok {
				b.Drops = append(b.Drops, DropEvent{w.box, DropMiddlebox})
				continue
			}
		}

		for _, h := range heads {
			forwarded := false
			for pi, slots := range wired.ports {
				if !member(h.leaf, slots.fwd) {
					continue
				}
				port := &box.Ports[pi]
				if !aclPasses(h.leaf, slots.outACL) {
					b.Drops = append(b.Drops, DropEvent{w.box, DropOutACL})
					forwarded = true
					continue
				}
				forwarded = true
				b.Edges = append(b.Edges, Edge{Box: w.box, Port: pi, To: port.Peer})
				switch port.Peer.Kind {
				case DestHost:
					b.Deliveries = append(b.Deliveries, Delivery{Host: port.Peer.Host, Box: w.box, Port: pi})
				case DestBox:
					queue = append(queue, workItem{box: port.Peer.Box, pkt: h.pkt, leaf: h.leaf, hops: w.hops + 1})
				case DestNone:
					b.Drops = append(b.Drops, DropEvent{w.box, DropDangling})
				}
			}
			if !forwarded {
				b.Drops = append(b.Drops, DropEvent{w.box, DropNoRoute})
			}
		}
	}
}
