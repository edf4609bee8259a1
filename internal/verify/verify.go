// Package verify builds the control-plane applications of §I on top of
// packet behavior identification: network-wide invariant checking at
// atomic-predicate granularity.
//
// Because every packet in an atom behaves identically at every box,
// network-wide questions ("which packets reach host h from box b?", "does
// any packet loop?", "can traffic bypass the firewall?") reduce to one
// behavior computation per (atom, ingress) pair, and their answers are
// exact packet sets — unions of atoms — rather than samples.
//
// The Analyzer is snapshot-native: New pins one classifier epoch (the
// published snapshot, whose tree and port/ACL wiring are one atomic
// publication) and never reads the live Manager again, so concurrent
// rule-delta batches and reconstructions cannot change its answers and it
// needs no quiescence. The topology it walks is the classifier's own: it
// never changes after setup. Results are PacketSets: interval-coded atom-ID sets
// interpreted against the pinned epoch.
package verify

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/network"
	"apclassifier/internal/obs"
	"apclassifier/internal/predicate"
)

// Analyzer answers network-wide verification queries against one pinned
// classifier epoch. It walks each (ingress, atom) pair at most once: the
// first query that names an ingress builds that ingress's row, and every
// query after it — on any host, box or property — is a lookup in the row.
// It is safe for concurrent use; sweep queries build rows in parallel.
type Analyzer struct {
	layout *header.Layout
	snap   *aptree.Snapshot
	view   *aptree.AtomView
	net    *network.Network
	// hostID numbers the hosts attached in the pinned topology.
	hostID map[string]int
	rows   []lazyRow
}

// lazyRow is one ingress's row: built once, by whichever query asks
// first, and read lock-free after.
type lazyRow struct {
	once sync.Once
	row  *row
}

// row is what one ingress's walks amount to, transposed: for each
// question a query can ask, the set of atoms that answer yes.
type row struct {
	delivered  []predicate.AtomSet // by hostID: atoms with a branch delivered to the host
	anyHost    predicate.AtomSet   // atoms delivered to at least one host
	traverses  []predicate.AtomSet // by box: atoms whose walk crosses the box
	loops      predicate.AtomSet   // atoms that revisit a box
	blackholes predicate.AtomSet   // atoms with a branch no port matches
}

// New pins the classifier's published epoch — tree and wiring, one
// snapshot — and builds an analyzer over it. The classifier
// may keep updating freely; the analyzer's answers describe the pinned
// epoch. New walks nothing: rows are built by the queries that need them.
// Networks with middleboxes are rejected (their rewrites depend on
// concrete headers, not atoms).
func New(c *apclassifier.Classifier) *Analyzer {
	snap, net := c.Manager.Snapshot(), c.Net
	if network.WiringOf(snap).FirstMiddlebox() >= 0 {
		panic("verify: atom-level analysis does not support middleboxes")
	}
	hostID := map[string]int{}
	for _, b := range net.Boxes {
		for i := range b.Ports {
			if p := &b.Ports[i].Peer; p.Kind == network.DestHost {
				if _, ok := hostID[p.Host]; !ok {
					hostID[p.Host] = len(hostID)
				}
			}
		}
	}
	return &Analyzer{
		layout: c.Layout,
		snap:   snap,
		view:   snap.Atoms(),
		net:    net,
		hostID: hostID,
		rows:   make([]lazyRow, len(net.Boxes)),
	}
}

// Epoch reports the reconstruction epoch the analyzer is pinned to.
func (a *Analyzer) Epoch() uint64 { return a.snap.Version() }

// NumAtoms reports the number of atoms in the pinned epoch.
func (a *Analyzer) NumAtoms() int { return a.view.N() }

// NumBoxes reports the number of boxes in the topology.
//
//lint:ignore unreached oracle bound: row_test.go sweeps every ingress with it
func (a *Analyzer) NumBoxes() int { return len(a.net.Boxes) }

// BoxByName resolves a box name against the topology. Returns -1 if
// absent.
func (a *Analyzer) BoxByName(name string) int { return a.net.BoxByName(name) }

// BoxName returns the topology's name for a box ID.
func (a *Analyzer) BoxName(i int) string { return a.net.Boxes[i].Name }

// newWalker returns a traverser over the topology. One per goroutine;
// the analyzer itself holds none.
func (a *Analyzer) newWalker() *network.Walker {
	return network.NewWalker(a.net)
}

// row returns the ingress's row, building it on first use with the
// caller's Walker (sweep workers have one) or, given nil, a fresh one.
func (a *Analyzer) row(w *network.Walker, ingress int) *row {
	lr := &a.rows[ingress]
	lr.once.Do(func() {
		if w == nil {
			w = a.newWalker()
		}
		lr.row = a.buildRow(w, ingress)
	})
	return lr.row
}

// atomAcc accumulates one index entry during the ascending atom pass. A
// walk can hit the same entry twice (two edges through one box); next
// makes add idempotent per atom.
type atomAcc struct {
	b    predicate.AtomSetBuilder
	next int32 // last atom added + 1
}

func (c *atomAcc) add(atom int32) {
	if c.next != atom+1 {
		c.b.Add(atom)
		c.next = atom + 1
	}
}

func atomSets(accs []atomAcc) []predicate.AtomSet {
	sets := make([]predicate.AtomSet, len(accs))
	for i := range accs {
		sets[i] = accs[i].b.Set()
	}
	return sets
}

// buildRow is the analyzer's only traversal: one ascending pass over the
// atoms, one walk each, read straight out of the Walker's scratch (nothing
// is cloned or cached per atom) and folded into the row's indexes.
func (a *Analyzer) buildRow(w *network.Walker, ingress int) *row {
	start := time.Now()
	delivered := make([]atomAcc, len(a.hostID))
	traverses := make([]atomAcc, len(a.net.Boxes))
	var anyHost, loops, blackholes atomAcc
	a.view.Each(func(atom int32) bool {
		b := w.Behavior(a.snap, ingress, nil, a.view.Leaf(atom))
		for _, d := range b.Deliveries {
			delivered[a.hostID[d.Host]].add(atom)
			anyHost.add(atom)
		}
		if len(b.Edges) > 0 || len(b.Deliveries) > 0 || len(b.Drops) > 0 {
			traverses[ingress].add(atom)
		}
		for _, e := range b.Edges {
			traverses[e.Box].add(atom)
			if e.To.Kind == network.DestBox {
				traverses[e.To.Box].add(atom)
			}
		}
		for _, d := range b.Drops {
			switch d.Reason {
			case network.DropLoop:
				loops.add(atom)
			case network.DropNoRoute:
				blackholes.add(atom)
			}
		}
		return true
	})
	mRowsBuilt.Inc()
	mRowWalks.Add(uint64(a.view.N()))
	mRowBuild.Record(time.Since(start).Seconds())
	return &row{
		delivered:  atomSets(delivered),
		anyHost:    anyHost.b.Set(),
		traverses:  atomSets(traverses),
		loops:      loops.b.Set(),
		blackholes: blackholes.b.Set(),
	}
}

// Row-build metrics, flushed once per row — never per atom, and nothing
// on the query path.
var (
	mRowsBuilt = obs.Default.Counter("apc_verify_rows_built_total",
		"Per-ingress verification rows built (one pass over every atom of the pinned epoch).")
	mRowWalks = obs.Default.Counter("apc_verify_row_walks_total",
		"Stage-2 walks performed by verification row builds, one per (ingress, atom).")
	mRowBuild = obs.Default.Histogram("apc_verify_row_build_seconds",
		"Time to build one verification row.", obs.DefBuckets)
)

// PacketSet is an exact set of packets of the analyzer's epoch: a union
// of atomic predicates, held as an interval-coded atom-ID set. All
// per-packet questions (membership, counting, examples) are answered
// from the pinned snapshot without touching the live classifier.
type PacketSet struct {
	a   *Analyzer
	set predicate.AtomSet
}

// Empty reports whether the set contains no packets.
func (ps PacketSet) Empty() bool { return ps.set.Empty() }

// NumAtoms reports how many atoms make up the set.
func (ps PacketSet) NumAtoms() int { return ps.set.Len() }

// Atoms returns the underlying interval-coded atom-ID set.
//
//lint:ignore unreached oracle: row_test.go, churn_test.go and verify_test.go compare packet sets by their atom sets
func (ps PacketSet) Atoms() predicate.AtomSet { return ps.set }

// Contains reports whether the concrete packet belongs to the set,
// classifying it against the pinned epoch.
func (ps PacketSet) Contains(pkt []byte) bool {
	leaf, _ := ps.a.snap.ClassifyPointer(pkt)
	return ps.set.Contains(leaf.AtomID)
}

// Count returns the number of headers in the set (atoms are disjoint, so
// their satisfying-assignment counts add).
func (ps PacketSet) Count() float64 {
	v := ps.a.snap.View()
	total := 0.0
	ps.set.Each(func(id int32) bool {
		total += v.SatCount(ps.a.view.BDD(id))
		return true
	})
	return total
}

// Fraction returns the set's share of the whole header space, in [0, 1].
func (ps PacketSet) Fraction() float64 {
	return ps.Count() / ps.a.snap.View().SatCount(bdd.True)
}

// Example returns one satisfying header assignment (bdd.AnySat form:
// entries 0, 1 or -1 for don't-care) from the set, or nil if it is empty.
func (ps PacketSet) Example() []int8 {
	if ps.set.Empty() {
		return nil
	}
	return ps.a.snap.View().AnySat(ps.a.view.BDD(ps.set.Min()))
}

// UnionRef materializes the set as a single BDD by disjoining its atom
// BDDs in d. The atom refs belong to the pinned epoch's DD lineage, so d
// must be that same DD — in practice: the classifier's live DD, with no
// Reconstruct between New and this call. That is the situation of
// quiescent tests and BDD-interoperating tools (the policy guard); the
// analyzer itself never needs it.
func (ps PacketSet) UnionRef(d *bdd.DD) bdd.Ref {
	set := bdd.False
	ps.set.Each(func(id int32) bool {
		set = d.Or(set, ps.a.view.BDD(id))
		return true
	})
	return set
}

// ReachSet returns the exact set of packets that, entering at ingress,
// are delivered to the named host (to any host if the name is empty). A
// host not attached in the pinned topology is reached by nothing.
func (a *Analyzer) ReachSet(ingress int, host string) PacketSet {
	r := a.row(nil, ingress)
	if host == "" {
		return PacketSet{a, r.anyHost}
	}
	if id, ok := a.hostID[host]; ok {
		return PacketSet{a, r.delivered[id]}
	}
	return PacketSet{a: a}
}

// Blackholes returns the set of packets that, entering at ingress, have
// at least one branch dropped for lack of any matching output port.
func (a *Analyzer) Blackholes(ingress int) PacketSet {
	return PacketSet{a, a.row(nil, ingress).blackholes}
}

// Loop describes a forwarding loop: an atom that revisits a box when
// entering at Ingress.
type Loop struct {
	Ingress int
	AtomID  int32
	Example []int8 // one satisfying header assignment (bdd.AnySat form)
}

// LoopSet returns the set of packets that loop when entering at ingress.
//
//lint:ignore unreached oracle: the verify differential, row and churn tests compare loop sets per ingress
func (a *Analyzer) LoopSet(ingress int) PacketSet {
	return PacketSet{a, a.row(nil, ingress).loops}
}

// Loops sweeps every (ingress, atom) pair — in parallel, one worker per
// CPU — and reports every forwarding loop with an example header, by
// ingress then atom. The rows it builds stay with the analyzer, so the
// queries that follow a sweep walk nothing.
func (a *Analyzer) Loops() []Loop {
	a.sweep()
	view := a.snap.View()
	var out []Loop
	for ingress := range a.rows {
		a.row(nil, ingress).loops.Each(func(atom int32) bool {
			out = append(out, Loop{
				Ingress: ingress,
				AtomID:  atom,
				Example: view.AnySat(a.view.BDD(atom)),
			})
			return true
		})
	}
	return out
}

// WaypointViolations returns the set of packets that reach the host from
// ingress without traversing the waypoint box — the policy-enforcement
// check of §I ("HTTP traffic should be forwarded through firewall, IDS,
// proxy"). An empty result means the waypoint property holds.
func (a *Analyzer) WaypointViolations(ingress int, host string, waypoint int) PacketSet {
	return PacketSet{a, a.ReachSet(ingress, host).set.Diff(a.row(nil, ingress).traverses[waypoint])}
}

// CanReach returns the set of packets that, entering at box from,
// traverse box to (the VLAN-isolation check of §I asks for this to be
// empty between tenants). Every packet traverses its own ingress.
func (a *Analyzer) CanReach(from, to int) PacketSet {
	return PacketSet{a, a.row(nil, from).traverses[to]}
}

// Isolated reports whether no packet entering at from can traverse to.
func (a *Analyzer) Isolated(from, to int) bool {
	return a.CanReach(from, to).Empty()
}

// ReachabilityMatrix computes, for every ordered box pair (i, j), how
// many atoms entering at i traverse j — a compact network-wide
// connectivity summary (the diagonal counts atoms that do anything at all
// at i). Rows are built in parallel and stay with the analyzer.
func (a *Analyzer) ReachabilityMatrix() [][]int {
	a.sweep()
	m := make([][]int, len(a.rows))
	for i := range m {
		m[i] = make([]int, len(a.rows))
		for j, set := range a.row(nil, i).traverses {
			m[i][j] = set.Len()
		}
	}
	return m
}

// sweep builds every row not built yet, across GOMAXPROCS workers, each
// with its own Walker.
func (a *Analyzer) sweep() {
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := a.newWalker()
			for ingress := range next {
				a.row(w, ingress)
			}
		}()
	}
	for ingress := range a.rows {
		next <- ingress
	}
	close(next)
	wg.Wait()
}

// Describe renders a packet set as a human-readable summary: its share of
// the header space and one example header.
func (a *Analyzer) Describe(ps PacketSet) string {
	if ps.Empty() {
		return "(empty)"
	}
	return describe(a.layout, ps.Fraction(), ps.Example())
}

// DescribeRef renders a BDD packet set against a live DD the same way
// Describe renders a PacketSet; for BDD-interoperating callers (the
// policy guard) that still work in refs.
func DescribeRef(d *bdd.DD, layout *header.Layout, set bdd.Ref) string {
	if set == bdd.False {
		return "(empty)"
	}
	return describe(layout, d.SatCount(set)/d.SatCount(bdd.True), d.AnySat(set))
}

func describe(layout *header.Layout, frac float64, example []int8) string {
	pkt := layout.NewPacket()
	for i, v := range example {
		if v == 1 {
			pkt[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return fmt.Sprintf("%.4g%% of header space, e.g. %s", frac*100, layout.String(pkt))
}
