package predicate

import (
	"slices"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// walkDatasets are the generated networks the trie walk is held to the
// shadow walk on; the full-scale ones are skipped under -short.
func walkDatasets(t *testing.T) map[string]*netgen.Dataset {
	fat, err := netgen.FatTreePreset("small")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]*netgen.Dataset{
		"internet2-x0.1": netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1}),
		"stanford-x0.05": netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.05}),
		"fattree-small":  netgen.FatTree(fat),
	}
	if !testing.Short() {
		sets["internet2-x1.0"] = netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 1})
		sets["stanford-x0.1"] = netgen.StanfordLike(netgen.Config{Seed: 1, RuleScale: 0.1})
	}
	return sets
}

// TestPortPredicatesMatchShadow converts every box of each dataset both
// ways in one DD: the trie walk's predicates must be the shadow walk's
// refs, port for port.
func TestPortPredicatesMatchShadow(t *testing.T) {
	for name, ds := range walkDatasets(t) {
		t.Run(name, func(t *testing.T) {
			d := bdd.New(ds.Layout.Bits())
			for bi := range ds.Boxes {
				box := &ds.Boxes[bi]
				got := PortPredicates(d, ds.Layout, "dstIP", &box.Fwd, box.NumPorts)
				want := shadowPortPredicates(d, ds.Layout, "dstIP", &box.Fwd, box.NumPorts)
				if !slices.Equal(got, want) {
					t.Fatalf("box %s: walk %v, shadow walk %v", box.Name, got, want)
				}
			}
		})
	}
}

// TestPortPredicatesWorkIsExact pins what a cold conversion costs in exact
// counts, on every box of Internet2 ×0.1 in one fresh DD: it runs no apply
// step, and every node it allocates belongs to a result, so a GC with the
// results retained frees nothing and leaves exactly the allocated nodes
// (plus the two terminals) live.
func TestPortPredicatesWorkIsExact(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.1})
	d := bdd.New(ds.Layout.Bits())
	before := d.Stats()
	for bi := range ds.Boxes {
		for _, p := range PortPredicates(d, ds.Layout, "dstIP", &ds.Boxes[bi].Fwd, ds.Boxes[bi].NumPorts) {
			d.Retain(p)
		}
	}
	after := d.Stats()
	if after.Ops != before.Ops {
		t.Errorf("the conversion ran %d apply steps, want 0", after.Ops-before.Ops)
	}
	allocated := after.NodesAllocated - before.NodesAllocated
	if freed := d.GC(); freed != 0 {
		t.Errorf("GC freed %d of the %d nodes the conversion allocated", freed, allocated)
	}
	if live := uint64(d.Size() - 2); live != allocated {
		t.Errorf("%d nodes live, the conversion allocated %d", live, allocated)
	}
	t.Logf("%d nodes allocated, all live", allocated)
}

// fuzzTable reads a forwarding table and a program of cone edits from
// bytes. Values keep the top byte, four middle bits and the low four
// bits, so prefixes nest, repeat and split down to /32 often.
type fuzzTable struct {
	data []byte
}

func (f *fuzzTable) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzTable) rule(numPorts int) rule.FwdRule {
	length, hi, lo, port := f.next(), f.next(), f.next(), f.next()
	v := uint32(hi)<<24 | uint32(lo&0xF0)<<16 | uint32(lo&0x0F)
	return rule.FwdRule{Prefix: rule.P(v, int(length%33)), Port: int(port)%(numPorts+1) - 1}
}

// FuzzPortPredicates builds a random table — duplicate prefixes, /0, /32,
// Drop at any depth, ports in any order — and holds the trie walk to the
// shadow walk ref for ref in one DD. Then it applies batches of
// AddWithCone/RemoveWithCone edits, nested regions included, and requires
// DeltaPortPredicates over each batch's cones to leave every port with
// the cold walk's predicate of the edited table.
func FuzzPortPredicates(f *testing.F) {
	// numPorts, rule count, rules (length, top byte, middle and low bits,
	// port), then ops: 0 add a rule, 1 remove an existing prefix, 2 end
	// the batch.
	f.Add([]byte{3, 4, 0, 0, 0, 1, 8, 10, 0, 2, 16, 10, 0xB0, 3, 16, 10, 0xC0, 0})
	f.Add([]byte{2, 5, 8, 10, 0, 1, 8, 10, 0, 2, 8, 10, 0, 0, 32, 10, 0x03, 2, 0, 0, 0, 0,
		0, 24, 10, 0, 2, 1, 1, 2, 0, 32, 10, 0x05, 0, 2, 1, 0})
	f.Add([]byte{4, 6, 1, 0x80, 0, 4, 4, 0x80, 0, 3, 8, 0x90, 0, 0, 12, 0x90, 0xA0, 2, 32, 0x90, 0xAF, 1, 9, 0xC0, 0, 0,
		0, 8, 0x90, 0, 4, 0, 12, 0x90, 0xA0, 0, 0, 32, 0x90, 0xAF, 3, 2, 1, 3, 1, 5, 2, 0, 0, 0, 0, 2})
	f.Add([]byte{1, 3, 32, 0xFF, 0xFF, 1, 32, 0xFF, 0xFF, 0, 31, 0xFF, 0xFE, 1, 1, 2, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzTable{data: data}
		numPorts := 1 + int(in.next()%6)
		var tbl rule.FwdTable
		for n := int(in.next() % 40); n > 0; n-- {
			tbl.Add(in.rule(numPorts))
		}
		d := bdd.New(32)
		preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
		if want := shadowPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts); !slices.Equal(preds, want) {
			t.Fatalf("walk %v, shadow walk %v, rules %v", preds, want, tbl.Rules)
		}
		var cones []rule.Cone
		flush := func() {
			deltas, _ := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, cones, numPorts,
				func(p int) bdd.Ref { return preds[p] })
			applyDeltas(preds, deltas)
			cones = nil
			if want := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts); !slices.Equal(preds, want) {
				t.Fatalf("delta-maintained %v, cold walk %v, rules %v", preds, want, tbl.Rules)
			}
		}
		for ops := 0; len(in.data) > 0 && ops < 64; ops++ {
			switch op := in.next(); op % 3 {
			case 0:
				cones = append(cones, tbl.AddWithCone(in.rule(numPorts)))
			case 1:
				if len(tbl.Rules) > 0 {
					if c, ok := tbl.RemoveWithCone(tbl.Rules[int(op/3)%len(tbl.Rules)].Prefix); ok {
						cones = append(cones, c)
					}
				}
			case 2:
				flush()
			}
		}
		flush()
	})
}
