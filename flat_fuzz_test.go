package apclassifier

import (
	"math/rand"
	"sync"
	"testing"

	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// fuzzClassifiers lazily builds one classifier per netgen dataset for the
// differential fuzz harness. Ordering is fixed (fuzz inputs address a
// dataset by index) and construction happens once per process — fuzz
// workers are separate processes, so each pays the build exactly once.
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
// generator produces. The flat core lowers them to cube lists; the fuzz
// seeds below start on their edges.
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

// FuzzFlatVsPointer is the differential fuzz harness for the flat
// classify core: arbitrary header bytes (padded or truncated to the
// dataset's layout) plus a fuzzed dataset/ingress choice must classify to
// the identical leaf atom through the compiled flat form and the pointer
// tree, and yield the identical network-wide behavior. The corpus seeds
// with the boundary-header generator, so the fuzzer starts on
// classification edges — prefix first/last addresses, off-by-one
// neighbors, port and proto extremes — and mutates outward from there.
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
		c := cs[int(dsChoice)%len(cs)]
		ds := dss[int(dsChoice)%len(cs)]
		pkt := c.Layout.NewPacket()
		copy(pkt, hdr) // shorter fuzz input reads as zero-padded header
		in := int(ingress) % len(ds.Boxes)

		s := c.Manager.Snapshot()
		flat := s.Flat()
		if flat == nil {
			t.Fatal("published snapshot carries no flat core")
		}
		want, _ := s.ClassifyPointer(pkt)
		got := flat.Classify(pkt)
		if got != want {
			t.Errorf("dataset %d pkt %x: flat atom %d != pointer atom %d",
				int(dsChoice)%len(cs), pkt, got.AtomID, want.AtomID)
		}
		// Behavior must agree too — checked through the facade's pinned
		// stage-2 path, so a leaf divergence surfaces as the full
		// network-wide consequence, not just an atom ID.
		fs := &Snapshot{c: c, s: s}
		bf := fs.BehaviorFrom(in, pkt, got).String()
		bp := fs.BehaviorFrom(in, pkt, want).String()
		if bf != bp {
			t.Errorf("dataset %d pkt %x ingress %d: behaviors diverge:\n flat    %s\n pointer %s",
				int(dsChoice)%len(cs), pkt, in, bf, bp)
		}
	})
}
