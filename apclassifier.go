// Package apclassifier is a control-plane tool for network-wide packet
// behavior identification, reproducing "Practical Network-Wide Packet
// Behavior Identification by AP Classifier" (Wang, Qian, Yu, Yang, Lam;
// CoNEXT 2015 / ToN 2017).
//
// Given the data-plane state of a network — forwarding tables and ACLs on
// every box — a Classifier answers, for any packet header and ingress box,
// the packet's complete network-wide behavior: the path (or multicast
// tree) it takes, where it is delivered, and where and why it is dropped.
//
// Queries run in two stages. Stage 1 classifies the packet to its atomic
// predicate by searching the AP Tree, a binary decision tree over the
// network's predicates whose construction order is optimized to minimize
// average search depth. Stage 2 walks the topology using the atomic
// predicate's membership bits — one bit per predicate — without touching a
// single BDD.
//
// Basic use:
//
//	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.05})
//	c, err := apclassifier.New(ds, apclassifier.Options{})
//	...
//	pkt := c.Layout.NewPacket()
//	c.Layout.Set(pkt, "dstIP", 0x0A000001)
//	b := c.Behavior(ingressBox, pkt)
//	fmt.Println(b)
package apclassifier

import (
	"fmt"
	"sort"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// Method re-exports the AP Tree construction methods.
type Method = aptree.Method

// Construction methods.
const (
	MethodOrder  = aptree.MethodOrder
	MethodRandom = aptree.MethodRandom
	MethodQuick  = aptree.MethodQuick
	MethodOAPT   = aptree.MethodOAPT
)

// Options configures Classifier construction.
type Options struct {
	// Method selects the AP Tree construction algorithm; the zero value
	// selects MethodOAPT, the paper's optimized construction. (The plain
	// fixed-order construction is available through TreeInput +
	// aptree.Build for experiments, not through the facade.)
	// Distribution-aware construction (§V-D) is Reconstruct(true) after
	// some queries have been counted.
	Method Method
}

// Classifier is the compiled form of a dataset: predicates, atoms, the AP
// Tree behind a reconstruction manager, and the topology for stage 2.
//
// The data plane is one published epoch: each Manager snapshot carries,
// as its Snapshot.Data, the network.Wiring (which predicate ID every port
// and ACL slot tests, which middlebox each box hosts) and the delta cursor
// that go with its tree, and, as its Snapshot.Memo, the network.Memo of
// what stage 2 has learned in that epoch. Net holds only what never
// changes after setup — names, peers and hosts — so queries read nothing
// a rule update writes. Dataset's rule tables are the writer's:
// ApplyRuleDeltas edits them in place, and a reader of them must
// synchronize with it.
type Classifier struct {
	Layout  *header.Layout
	Manager *aptree.Manager
	Net     *network.Network
	Dataset *netgen.Dataset
}

// New compiles a dataset: converts every forwarding table and ACL to
// predicates, computes atomic predicates, builds the AP Tree, and wires
// the topology.
func New(ds *netgen.Dataset, opts Options) (*Classifier, error) {
	if opts.Method == aptree.MethodRandom {
		return nil, fmt.Errorf("apclassifier: MethodRandom is for experiments; use TreeInput with aptree.Build")
	}
	if opts.Method == aptree.MethodOrder {
		opts.Method = aptree.MethodOAPT
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("apclassifier: invalid dataset: %w", err)
	}
	for bi := range ds.Boxes {
		if ds.Boxes[bi].PortACL == nil {
			// The classifier owns the dataset's rule tables from here on,
			// and ApplyRuleDeltas writes port ACLs into this map.
			ds.Boxes[bi].PortACL = map[int]*rule.ACL{}
		}
	}
	c := &Classifier{Layout: ds.Layout, Dataset: ds}
	d := bdd.New(ds.Layout.Bits())
	reg := aptree.NewRegistry()

	dstField := "dstIP"
	if _, ok := ds.Layout.FieldByName(dstField); !ok {
		return nil, fmt.Errorf("apclassifier: layout lacks %q field", dstField)
	}

	// Topology.
	c.Net = network.New()
	numPorts := make([]int, len(ds.Boxes))
	for bi := range ds.Boxes {
		c.Net.AddBox(ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)
		numPorts[bi] = ds.Boxes[bi].NumPorts
	}
	c.linkTopology()

	// Convert forwarding tables: one predicate per non-empty output port,
	// each table in one walk of its prefix index. The index is built here,
	// once, and kept for the rule changes to come.
	wiring := network.NewWiring(numPorts)
	for bi := range ds.Boxes {
		box := &ds.Boxes[bi]
		box.Fwd.Index()
		for pi, p := range predicate.PortPredicates(d, ds.Layout, dstField, &box.Fwd, box.NumPorts) {
			if p != bdd.False {
				d.Retain(p)
				wiring.SetFwd(bi, pi, reg.Add(p))
			}
		}
	}

	// Convert ACLs.
	for bi := range ds.Boxes {
		box := &ds.Boxes[bi]
		// Sorted port order, not map order: predicate registry IDs fix the
		// atom numbering, and a sharded fleet (internal/cluster) relies on
		// independent builds of one dataset agreeing bit for bit.
		ports := make([]int, 0, len(box.PortACL))
		for pi := range box.PortACL {
			ports = append(ports, pi)
		}
		sort.Ints(ports)
		for _, pi := range ports {
			p := predicate.ACLPredicate(d, ds.Layout, box.PortACL[pi])
			d.Retain(p)
			wiring.SetOutACL(bi, pi, reg.Add(p))
		}
		if box.InACL != nil {
			p := predicate.ACLPredicate(d, ds.Layout, box.InACL)
			d.Retain(p)
			wiring.SetInACL(bi, reg.Add(p))
		}
	}

	// Atoms and tree.
	live := reg.LiveIDs()
	atoms := c.atoms(d, wiring, live, reg.Ref, reg.NumIDs())
	tree := aptree.Build(aptree.Input{
		D:     d,
		Preds: reg.Refs(),
		Live:  live,
		Atoms: atoms,
	}, opts.Method)
	// Reclaim conversion scratch before the manager publishes its first
	// snapshot: once a frozen view of the DD is out, the DD must never be
	// garbage collected again (the GC-at-swap rule; see bdd.View).
	d.GC()
	c.Manager = aptree.NewManagerWith(d, reg, tree, opts.Method, wiring)
	return c, nil
}

// linkTopology attaches the dataset's links and hosts to c.Net, whose
// boxes are already added.
func (c *Classifier) linkTopology() {
	for _, l := range c.Dataset.Links {
		c.Net.Link(l.A, l.PA, l.B, l.PB)
	}
	for _, h := range c.Dataset.Hosts {
		c.Net.AttachHost(h.Box, h.Port, h.Name)
	}
}

// atoms computes the atomic predicates of the live predicates, whose refs
// ref yields, with membership vectors sized for capBits IDs. The
// forwarding predicates, mapped to their tables' ports through wiring,
// are not refined one by one: their atoms come from one joint walk of
// every box's prefix index (predicate.JointAtoms), and only the other
// live predicates — ACLs and any a caller added — refine them. The atoms
// come out as predicate.ComputeMapped over the live IDs numbers them.
func (c *Classifier) atoms(d *bdd.DD, w *network.Wiring, live []int32, ref func(int32) bdd.Ref, capBits int) *predicate.Atoms {
	boxes := c.Dataset.Boxes
	tables := make([]*rule.FwdTable, len(boxes))
	fwd := make([]bool, capBits)
	for bi := range boxes {
		tables[bi] = &boxes[bi].Fwd
		for pi := 0; pi < w.NumPorts(bi); pi++ {
			if id := w.Fwd(bi, pi); id != network.NoPred {
				fwd[id] = true
			}
		}
	}
	var rest []bdd.Ref
	var restIDs []int
	for _, id := range live {
		if !fwd[id] {
			rest = append(rest, ref(id))
			restIDs = append(restIDs, int(id))
		}
	}
	// NoPred is negative: a port without a predicate.
	fwdID := func(box, port int) int { return int(w.Fwd(box, port)) }
	return predicate.JointAtoms(d, c.Layout, "dstIP", tables, fwdID, rest, restIDs, capBits)
}

// TreeInput recomputes the atomic predicates of the live predicate set the
// way New does, from the rule tables and the published wiring, and returns
// a build input suitable for constructing additional AP Trees over the
// same predicates — the experiment harness uses it to compare
// construction methods. The classifier must be quiescent (no concurrent
// updates or reconstructions) while the input and trees built from it are
// in use, because they share the live DD and read the rule tables.
func (c *Classifier) TreeInput() aptree.Input {
	m := c.Manager
	d := m.DD()
	live := m.LiveIDs()
	maxID := int32(0)
	for _, id := range live {
		maxID = max(maxID, id)
	}
	preds := make([]bdd.Ref, maxID+1)
	for _, id := range live {
		preds[id] = m.Ref(id)
	}
	ref := func(id int32) bdd.Ref { return preds[id] }
	atoms := c.atoms(d, network.WiringOf(m.Snapshot()), live, ref, int(maxID)+1)
	return aptree.Input{D: d, Preds: preds, Live: live, Atoms: atoms}
}

// Classify runs stage 1: it returns the AP Tree leaf (atomic predicate)
// for the packet. It acquires no lock.
func (c *Classifier) Classify(pkt header.Packet) *aptree.Node {
	leaf, _ := c.Manager.Classify(pkt)
	return leaf
}

// Behavior runs both stages: it classifies the packet and computes its
// network-wide behavior from the given ingress box. The whole query is
// pinned to one snapshot epoch — tree, wiring, middleboxes and memo — and
// acquires no lock; it runs safely concurrent with rule-delta batches and
// reconstructions, and its answer is the behavior at one published
// state. Deterministic walks are memoized per (ingress, atom) in the
// epoch's memo, so repeated queries in the same traffic class skip stage 2
// entirely; the returned behavior may be that shared memoized value and
// must be treated as read-only.
func (c *Classifier) Behavior(ingress int, pkt header.Packet) *network.Behavior {
	s := c.Manager.Snapshot()
	leaf, _ := s.Classify(pkt)
	return c.behaviorVia(nil, s, ingress, pkt, leaf, false)
}

// behaviorVia is the one stage-2 pipeline every query path — single
// packet, batch, traced, snapshot-pinned — funnels through: consult the
// epoch's memo, walk on a miss (through the caller's Walker scratch when
// given), and memoize the walk if it was deterministic. With persist set
// the result never aliases Walker scratch, the form batch queries need
// (all results of a batch must be valid at once).
func (c *Classifier) behaviorVia(w *network.Walker, s *aptree.Snapshot, ingress int, pkt header.Packet, leaf *aptree.Node, persist bool) *network.Behavior {
	memo := network.MemoOf(s)
	if b := memo.Lookup(ingress, leaf.AtomID); b != nil {
		return b
	}
	var b *network.Behavior
	if w != nil {
		b = w.Behavior(s, ingress, pkt, leaf)
		if persist || b.Deterministic() {
			b = b.Clone()
		}
	} else {
		b = c.Net.Behavior(s, ingress, pkt, leaf)
	}
	if b.Deterministic() {
		memo.Store(ingress, leaf.AtomID, b)
	}
	return b
}

// NewWalker returns a reusable stage-2 traverser bound to this classifier,
// for allocation-free hot query loops. One Walker per goroutine.
func (c *Classifier) NewWalker() *network.Walker {
	return network.NewWalker(c.Net)
}

// BehaviorWith runs both stages using the caller's Walker, pinned to one
// snapshot epoch like Behavior; the result is read-only and valid until
// the Walker's next query (cache hits return the longer-lived shared
// behavior, but callers should assume the Walker-scratch lifetime).
func (c *Classifier) BehaviorWith(w *network.Walker, ingress int, pkt header.Packet) *network.Behavior {
	s := c.Manager.Snapshot()
	leaf, _ := s.Classify(pkt)
	return c.behaviorVia(w, s, ingress, pkt, leaf, false)
}

// NumPredicates reports the number of live predicates.
func (c *Classifier) NumPredicates() int { return c.Manager.NumLive() }

// NumAtoms reports the number of leaves (atomic predicates) of the
// published tree.
func (c *Classifier) NumAtoms() int { return c.Manager.Snapshot().Tree().NumLeaves() }

// AverageDepth reports the published tree's mean leaf depth.
func (c *Classifier) AverageDepth() float64 { return c.Manager.Snapshot().Tree().AverageDepth() }

// MemBytes estimates the memory footprint of the classifier state: BDD
// store (predicates + atoms + tree labels share it), membership vectors
// and tree nodes. It reads the published snapshot, so it is safe
// concurrent with updates.
func (c *Classifier) MemBytes() int {
	s := c.Manager.Snapshot()
	tree := s.Tree()
	mem := s.View().MemBytes()
	perLeaf := 64 // node struct
	mem += tree.NumLeaves() * (perLeaf + (tree.NumPreds()+7)/8)
	mem += (tree.NumLeaves() - 1) * perLeaf // internal nodes
	return mem
}

// Reconstruct rebuilds the AP Tree (optionally distribution-aware) and
// swaps it in; safe concurrently with queries and updates.
func (c *Classifier) Reconstruct(weighted bool) { c.Manager.Reconstruct(weighted) }
