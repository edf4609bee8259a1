package predicate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// applyDeltas installs each delta's New predicate into preds.
func applyDeltas(preds []bdd.Ref, deltas []PortPredicateDelta) {
	for _, dl := range deltas {
		preds[dl.Port] = dl.New
	}
}

func TestDeltaPortPredicatesAdd(t *testing.T) {
	const numPorts = 3
	d := bdd.New(32)
	var tbl rule.FwdTable
	tbl.Add(rule.FwdRule{Prefix: rule.P(0, 0), Port: 0})
	tbl.Add(rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)

	cone := tbl.AddWithCone(rule.FwdRule{Prefix: rule.P(0x0A0B0000, 16), Port: 2})
	deltas := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, []rule.Cone{cone}, numPorts,
		func(p int) bdd.Ref { return preds[p] })

	// Port 1 loses 10.11/16 to port 2; port 0 is covered by the cone but
	// unchanged (10/8 already shadowed it there), so no delta for it.
	got := map[int]bool{}
	for _, dl := range deltas {
		got[dl.Port] = true
	}
	if got[0] || !got[1] || !got[2] {
		t.Fatalf("deltas for ports %v, want exactly {1,2}", got)
	}
	applyDeltas(preds, deltas)
	want := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
	for p := range want {
		if preds[p] != want[p] {
			t.Fatalf("port %d predicate diverges from full recompute", p)
		}
	}
}

func TestDeltaPortPredicatesEmptyCone(t *testing.T) {
	d := bdd.New(32)
	var tbl rule.FwdTable
	tbl.Add(rule.FwdRule{Prefix: rule.P(0, 0), Port: 0})
	if got := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, nil, 1,
		func(int) bdd.Ref { t.Fatal("old must not be read"); return bdd.False }); got != nil {
		t.Fatalf("no cones must yield no deltas, got %v", got)
	}
}

// TestDeltaPortPredicatesChurn drives a random table through interleaved
// adds and removes, maintaining predicates purely by deltas, and checks after
// every step that they are identical (as BDD nodes) to a full recompute.
func TestDeltaPortPredicatesChurn(t *testing.T) {
	const numPorts = 5
	rng := rand.New(rand.NewSource(31))
	d := bdd.New(32)
	var tbl rule.FwdTable
	for i := 0; i < 40; i++ {
		length := []int{0, 4, 8, 12, 16, 20, 24}[rng.Intn(7)]
		tbl.Add(rule.FwdRule{
			Prefix: rule.P(uint32(rng.Intn(4))<<28|rng.Uint32()>>4, length),
			Port:   rng.Intn(numPorts+1) - 1, // includes Drop
		})
	}
	preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
	for step := 0; step < 120; step++ {
		var cone rule.Cone
		if rng.Intn(2) == 0 || len(tbl.Rules) == 0 {
			length := []int{0, 4, 8, 12, 16, 20, 24, 28, 32}[rng.Intn(9)]
			cone = tbl.AddWithCone(rule.FwdRule{
				Prefix: rule.P(uint32(rng.Intn(4))<<28|rng.Uint32()>>4, length),
				Port:   rng.Intn(numPorts+1) - 1,
			})
		} else {
			victim := tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix
			var ok bool
			cone, ok = tbl.RemoveWithCone(victim)
			if !ok {
				t.Fatalf("step %d: removing an existing prefix failed", step)
			}
		}
		deltas := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, []rule.Cone{cone}, numPorts,
			func(p int) bdd.Ref { return preds[p] })
		applyDeltas(preds, deltas)
		want := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
		for p := range want {
			if preds[p] != want[p] {
				t.Fatalf("step %d: port %d predicate diverges from full recompute", step, p)
			}
		}
	}
}

// TestDeltaPortPredicatesBatched checks multi-cone application: several
// mutations collected first, then converted in one DeltaPortPredicates call
// against the final table.
func TestDeltaPortPredicatesBatched(t *testing.T) {
	const numPorts = 4
	rng := rand.New(rand.NewSource(47))
	d := bdd.New(32)
	var tbl rule.FwdTable
	for i := 0; i < 30; i++ {
		tbl.Add(rule.FwdRule{
			Prefix: rule.P(rng.Uint32()&0x30FF0000, []int{0, 4, 8, 12, 16}[rng.Intn(5)]),
			Port:   rng.Intn(numPorts+1) - 1,
		})
	}
	preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
	for round := 0; round < 20; round++ {
		var cones []rule.Cone
		for k := 0; k < 1+rng.Intn(5); k++ {
			if rng.Intn(2) == 0 || len(tbl.Rules) == 0 {
				cones = append(cones, tbl.AddWithCone(rule.FwdRule{
					Prefix: rule.P(rng.Uint32()&0x30FF0000, []int{4, 8, 12, 16, 20}[rng.Intn(5)]),
					Port:   rng.Intn(numPorts+1) - 1,
				}))
			} else {
				victim := tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix
				if c, ok := tbl.RemoveWithCone(victim); ok {
					cones = append(cones, c)
				}
			}
		}
		deltas := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, cones, numPorts,
			func(p int) bdd.Ref { return preds[p] })
		applyDeltas(preds, deltas)
		want := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
		for p := range want {
			if preds[p] != want[p] {
				t.Fatalf("round %d: port %d predicate diverges from full recompute", round, p)
			}
		}
	}
}

// scanDeltaPortPredicates is DeltaPortPredicates as it was before the
// rule table had a prefix index: the rules overlapping a cone region are
// found by a scan of the whole table and ordered by a stable sort on
// prefix length. It is the oracle the indexed version is held to.
func scanDeltaPortPredicates(d *bdd.DD, t *rule.FwdTable, cones []rule.Cone, numPorts int, old func(int) bdd.Ref) []PortPredicateDelta {
	var idx []int
	for i, r := range t.Rules {
		for _, c := range cones {
			if r.Prefix.Contains(c.Region) || c.Region.Contains(r.Prefix) {
				idx = append(idx, i)
				break
			}
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.Rules[idx[a]].Prefix.Length > t.Rules[idx[b]].Prefix.Length })
	region := ConeRegion(d, header.IPv4Dst, "dstIP", cones)
	within := make([]bdd.Ref, numPorts)
	shadow := bdd.False
	for _, ri := range idx {
		r := t.Rules[ri]
		match := d.And(PrefixBDD(d, header.IPv4Dst, "dstIP", r.Prefix), region)
		if eff := d.Diff(match, shadow); r.Port != rule.Drop {
			within[r.Port] = d.Or(within[r.Port], eff)
		}
		shadow = d.Or(shadow, match)
	}
	ports := map[int]bool{}
	for _, c := range cones {
		for _, p := range c.Ports {
			ports[p] = true
		}
	}
	var out []PortPredicateDelta
	for p := 0; p < numPorts; p++ {
		if !ports[p] {
			continue
		}
		prev := old(p)
		if next := d.Or(d.Diff(prev, region), within[p]); next != prev {
			out = append(out, PortPredicateDelta{Port: p, Old: prev, New: next})
		}
	}
	return out
}

// TestDeltaPortPredicatesMatchesScan holds the indexed DeltaPortPredicates
// to the scan it replaced, ref for ref, on random tables with duplicate
// prefixes, /0 and /32 rules and Drop rules, under batches of cone edits.
func TestDeltaPortPredicatesMatchesScan(t *testing.T) {
	const numPorts = 4
	rng := rand.New(rand.NewSource(53))
	prefix := func() rule.Prefix {
		length := []int{0, 2, 4, 8, 12, 16, 24, 32}[rng.Intn(8)]
		return rule.P(rng.Uint32()&0xC0F000FF, length)
	}
	for trial := 0; trial < 10; trial++ {
		d := bdd.New(32)
		var tbl rule.FwdTable
		for i := 0; i < 40; i++ {
			tbl.Add(rule.FwdRule{Prefix: prefix(), Port: rng.Intn(numPorts+1) - 1})
		}
		preds := PortPredicates(d, header.IPv4Dst, "dstIP", &tbl, numPorts)
		for round := 0; round < 30; round++ {
			var cones []rule.Cone
			for k := 0; k < 1+rng.Intn(3); k++ {
				if rng.Intn(2) == 0 || len(tbl.Rules) == 0 {
					cones = append(cones, tbl.AddWithCone(rule.FwdRule{Prefix: prefix(), Port: rng.Intn(numPorts+1) - 1}))
				} else if c, ok := tbl.RemoveWithCone(tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix); ok {
					cones = append(cones, c)
				}
			}
			old := func(p int) bdd.Ref { return preds[p] }
			got := DeltaPortPredicates(d, header.IPv4Dst, "dstIP", &tbl, cones, numPorts, old)
			want := scanDeltaPortPredicates(d, &tbl, cones, numPorts, old)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: indexed %v, scan %v", trial, round, got, want)
			}
			applyDeltas(preds, got)
		}
	}
}
