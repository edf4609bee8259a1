package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"apclassifier"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
)

// TableII reproduces Table II (§VII-G): throughput of computing packet
// behaviors when 1–3 boxes host header-modifying middleboxes, for
// deterministic ratios 0.9, 0.5 and 0.
//
// Following the paper: each middlebox flow table has ten entries whose
// match fields are obtained by grouping all atomic predicates into ten
// predicates, so every incoming packet matches an entry. A deterministic
// (Type 1) entry's new atomic predicate is served from the flow table
// cache; the rest force a second AP Tree search.
func (e *Env) TableII(traceLen int, minDur time.Duration) *Table {
	t := &Table{
		Title:  "Table II — throughput with packet header changes (Mqps)",
		Header: []string{"network", "middleboxes", "ratio 0.9", "ratio 0.5", "ratio 0.0"},
		Notes: []string{
			"paper (full behavior computation): Internet2 5.5→3.8, Stanford 3.1→2.1 Mqps as ratio drops and middleboxes increase",
		},
	}
	for _, name := range e.networks() {
		_, ds := e.network(name)
		mb := newMBBench(ds, traceLen)
		for _, numMB := range []int{1, 2, 3} {
			row := []string{name, fmt.Sprint(numMB)}
			for _, ratio := range []float64{0.9, 0.5, 0.0} {
				row = append(row, mqps(mb.measure(numMB, ratio, minDur)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// mbBench holds a compiled classifier with the ten match-group predicates
// registered once; individual cells attach/detach middlebox flow tables.
type mbBench struct {
	ds        *netgen.Dataset
	c         *apclassifier.Classifier
	rng       *rand.Rand
	matchIDs  []int32
	targets   [][]byte
	boxOrder  []int
	trace     [][]byte
	ingresses []int
}

const mbEntries = 10

func newMBBench(ds *netgen.Dataset, traceLen int) *mbBench {
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		panic(err)
	}
	m := &mbBench{ds: ds, c: c, rng: rand.New(rand.NewSource(220))}
	in := c.TreeInput()

	// Ten rewrite target 5-tuples drawn from routed prefixes, so rewritten
	// packets keep flowing.
	m.targets = make([][]byte, mbEntries)
	for i := range m.targets {
		f := ds.RandomFields(m.rng)
		m.targets[i] = ds.PacketFromFields(f)
	}

	// Group all atoms into ten match predicates (every packet matches).
	groups := make([]bdd.Ref, mbEntries)
	for i := range groups {
		groups[i] = bdd.False
	}
	d := c.Manager.DD()
	for a := 0; a < in.Atoms.N(); a++ {
		g := a % mbEntries
		groups[g] = d.Or(groups[g], in.Atoms.List[a])
	}
	m.matchIDs = make([]int32, mbEntries)
	for i, g := range groups {
		g := g
		m.matchIDs[i] = c.Manager.AddPredicate(func(dd *bdd.DD) bdd.Ref { return g })
	}

	// Middleboxes go on the highest-degree boxes (backbone hubs).
	deg := make([]int, len(ds.Boxes))
	for _, l := range ds.Links {
		deg[l.A]++
		deg[l.B]++
	}
	m.boxOrder = shuffledOrder(len(ds.Boxes), m.rng)
	for i := 0; i < len(m.boxOrder); i++ {
		for j := i + 1; j < len(m.boxOrder); j++ {
			if deg[m.boxOrder[j]] > deg[m.boxOrder[i]] {
				m.boxOrder[i], m.boxOrder[j] = m.boxOrder[j], m.boxOrder[i]
			}
		}
	}

	m.trace = uniformTrace(in, ds.Layout.Bytes(), traceLen, m.rng)
	m.ingresses = make([]int, len(m.trace))
	for i := range m.ingresses {
		m.ingresses[i] = m.rng.Intn(len(ds.Boxes))
	}
	return m
}

// measure attaches numMB middleboxes with the given deterministic ratio,
// measures end-to-end behavior-computation throughput, and detaches them.
// Attaching publishes an epoch, so each cell starts from an empty memo.
func (m *mbBench) measure(numMB int, ratio float64, minDur time.Duration) float64 {
	numDet := int(ratio*mbEntries + 0.5)
	var attach, detach []apclassifier.RuleDelta
	for mbi := 0; mbi < numMB; mbi++ {
		mb := &network.Middlebox{Name: fmt.Sprintf("MB%d", mbi)}
		for ei := 0; ei < mbEntries; ei++ {
			typ := network.MBPayload
			var rewrite network.Rewrite
			tgt := m.targets[ei]
			if ei < numDet {
				// Type 1: full-header rewrite to a constant — the new
				// atomic predicate is a pure function of the entry, so the
				// flow-table cache applies.
				typ = network.MBDeterministic
				rewrite = func(pkt []byte) [][]byte {
					out := make([]byte, len(tgt))
					copy(out, tgt)
					return [][]byte{out}
				}
			} else {
				// Type 2: only the destination is rewritten; the rest of
				// the header is payload-determined, forcing a re-search.
				tgtDst := m.ds.Layout.Get(tgt, "dstIP")
				layout := m.ds.Layout
				rewrite = func(pkt []byte) [][]byte {
					out := make([]byte, len(pkt))
					copy(out, pkt)
					layout.Set(out, "dstIP", tgtDst)
					return [][]byte{out}
				}
			}
			mb.Entries = append(mb.Entries, network.MBEntry{
				Match: m.matchIDs[ei], Type: typ, Rewrite: rewrite,
			})
		}
		attach = append(attach, apclassifier.RuleDelta{Op: apclassifier.OpSetMiddlebox, Box: m.boxOrder[mbi], MB: mb})
		detach = append(detach, apclassifier.RuleDelta{Op: apclassifier.OpSetMiddlebox, Box: m.boxOrder[mbi]})
	}
	mustApply(m.c, attach)

	walker := m.c.NewWalker()
	i := 0
	q := measureQPS(func(p []byte) {
		m.c.BehaviorWith(walker, m.ingresses[i%len(m.ingresses)], p)
		i++
	}, m.trace, minDur)

	mustApply(m.c, detach)
	return q
}

func mustApply(c *apclassifier.Classifier, deltas []apclassifier.RuleDelta) {
	if err := c.ApplyRuleDeltas(deltas); err != nil {
		panic(err)
	}
}
