package apclassifier

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// fuzzClassifiers lazily builds one classifier per netgen dataset for the
// classify-vs-simulate fuzz harness. Ordering is fixed (fuzz inputs
// address a dataset by index) and construction happens once per process —
// fuzz workers are separate processes, so each pays the build exactly
// once.
var fuzzClassifiers struct {
	once sync.Once
	cs   []*Classifier
	ds   []*netgen.Dataset
	err  error
}

func fuzzSetup() ([]*Classifier, []*netgen.Dataset, error) {
	fuzzClassifiers.once.Do(func() {
		names := []string{"internet2", "stanford", "multitenant", "shortunion"}
		all := diffDatasets()
		all["shortunion"] = shortUnionDataset()
		for _, name := range names {
			ds := all[name]
			c, err := New(ds, Options{})
			if err != nil {
				fuzzClassifiers.err = err
				return
			}
			fuzzClassifiers.cs = append(fuzzClassifiers.cs, c)
			fuzzClassifiers.ds = append(fuzzClassifiers.ds, ds)
		}
	})
	return fuzzClassifiers.cs, fuzzClassifiers.ds, fuzzClassifiers.err
}

// shortUnionDataset is one box whose port-0 predicate is the union of two
// short prefixes (64.0.0.0/3 ∪ 144.0.0.0/5) and whose port-1 predicate is
// the rest of the space: non-minterms over five header bits, the shape no
// generator produces. The fuzz seeds below start on their edges.
func shortUnionDataset() *netgen.Dataset {
	ds := &netgen.Dataset{
		Name:   "shortunion",
		Layout: header.IPv4Dst,
		Boxes:  []netgen.BoxSpec{{Name: "r0", NumPorts: 2}},
		Hosts:  []netgen.Host{{Box: 0, Port: 0, Name: "h0"}, {Box: 0, Port: 1, Name: "h1"}},
	}
	fwd := &ds.Boxes[0].Fwd
	fwd.Add(rule.FwdRule{Prefix: rule.P(0x40000000, 3), Port: 0})
	fwd.Add(rule.FwdRule{Prefix: rule.P(0x90000000, 5), Port: 0})
	fwd.Add(rule.FwdRule{Prefix: rule.P(0, 0), Port: 1})
	return ds
}

// FuzzClassifyVsSimulate holds the two-stage pipeline to an oracle that
// shares none of its code: a fuzzed 5-tuple, dataset and ingress must
// classify to a leaf whose atom BDD holds the packet, a batch of one must
// land on the same leaf, and the network-wide behavior must deliver to
// exactly the hosts the rule-table simulator (netgen.Dataset.Simulate)
// reaches. The corpus seeds with the boundary-header generator, so the
// fuzzer starts on classification edges — prefix first/last addresses,
// off-by-one neighbors, port and proto extremes — and mutates outward
// from there.
func FuzzClassifyVsSimulate(f *testing.F) {
	cs, dss, err := fuzzSetup()
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for di, ds := range dss {
		for _, fl := range boundaryFields(ds, rng, 2) {
			f.Add(uint8(di), uint8(rng.Intn(len(ds.Boxes))), fl.Src, fl.Dst, fl.SrcPort, fl.DstPort, fl.Proto)
		}
	}

	f.Fuzz(func(t *testing.T, dsChoice, ingress uint8, src, dst uint32, sport, dport uint16, proto uint8) {
		di := int(dsChoice) % len(cs)
		c, ds := cs[di], dss[di]
		fl := rule.Fields{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: proto}
		pkt := ds.PacketFromFields(fl)
		in := int(ingress) % len(ds.Boxes)

		s := c.Manager.Snapshot()
		leaf, _ := s.Classify(pkt)
		if !s.View().EvalBits(leaf.BDD, pkt) {
			t.Fatalf("dataset %d %+v: leaf atom %d does not hold the packet", di, fl, leaf.AtomID)
		}
		out := make([]*aptree.Node, 1)
		s.ClassifyBatchWith(&aptree.BatchScratch{}, [][]byte{pkt}, out)
		if out[0] != leaf {
			t.Fatalf("dataset %d %+v: batch of one lands on atom %d, Classify on %d",
				di, fl, out[0].AtomID, leaf.AtomID)
		}

		want := slices.Clone(ds.Simulate(in, fl).Delivered)
		var got []string
		for _, d := range c.Behavior(in, pkt).Deliveries {
			got = append(got, d.Host)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("dataset %d %+v from box %d: delivered %v, simulator %v", di, fl, in, got, want)
		}
	})
}

// FuzzFlatVsPointer is the raw-byte differential of the one stage-1
// engine, named for the compiled flat core it once held to the pointer
// descent: arbitrary header bytes (padded or truncated to the dataset's
// layout) plus a fuzzed dataset/ingress choice must land, through the
// snapshot's frozen-view descent, on the leaf the live tree's walk through
// the live DD (Tree.Classify) returns; the packet and its one-bit
// neighbours, classified as one batch, must each land there too; and the
// facade's Behavior must equal the pinned stage-2 path from the live
// walk's leaf. The corpus seeds with the boundary-header generator on the
// same four datasets as FuzzClassifyVsSimulate.
func FuzzFlatVsPointer(f *testing.F) {
	cs, dss, err := fuzzSetup()
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for di, ds := range dss {
		for _, fl := range boundaryFields(ds, rng, 2) {
			f.Add(uint8(di), uint8(rng.Intn(len(ds.Boxes))), []byte(ds.PacketFromFields(fl)))
		}
	}

	f.Fuzz(func(t *testing.T, dsChoice, ingress uint8, hdr []byte) {
		di := int(dsChoice) % len(cs)
		c, ds := cs[di], dss[di]
		pkt := c.Layout.NewPacket()
		copy(pkt, hdr) // shorter fuzz input reads as zero-padded header
		in := int(ingress) % len(ds.Boxes)

		s := c.Manager.Snapshot()
		want := s.Tree().Classify(pkt)
		if got, _ := s.Classify(pkt); got != want {
			t.Fatalf("dataset %d pkt %x: descent atom %d != live walk atom %d", di, pkt, got.AtomID, want.AtomID)
		}

		batch := [][]byte{pkt}
		for bit := 0; bit < 8*len(pkt); bit++ {
			nb := slices.Clone(pkt)
			nb[bit>>3] ^= 0x80 >> (bit & 7)
			batch = append(batch, nb)
		}
		out := make([]*aptree.Node, len(batch))
		s.ClassifyBatchWith(&aptree.BatchScratch{}, batch, out)
		for i, p := range batch {
			if w := s.Tree().Classify(p); out[i] != w {
				t.Fatalf("dataset %d pkt %x: batch atom %d != live walk atom %d", di, p, out[i].AtomID, w.AtomID)
			}
		}

		fs := &Snapshot{c: c, s: s}
		if got, exp := c.Behavior(in, pkt).String(), fs.BehaviorFrom(in, pkt, want).String(); got != exp {
			t.Fatalf("dataset %d pkt %x ingress %d: behaviors diverge:\n Behavior    %s\n BehaviorFrom %s",
				di, pkt, in, got, exp)
		}
	})
}
