package trie

import (
	"math/rand"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func TestInsertAndMatching(t *testing.T) {
	var tr Trie
	tr.Insert(0, rule.FwdRule{Prefix: rule.P(0x0A000000, 8), Port: 1})
	tr.Insert(0, rule.FwdRule{Prefix: rule.P(0x0A0B0000, 16), Port: 2})
	tr.Insert(1, rule.FwdRule{Prefix: rule.P(0, 0), Port: 3})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	m := tr.Matching(0x0A0B0001)
	if len(m) != 3 {
		t.Fatalf("matching = %d rules, want 3", len(m))
	}
	m = tr.Matching(0x0B000000)
	if len(m) != 1 || m[0].Box != 1 {
		t.Fatalf("matching = %v", m)
	}
}

func TestLookupBoxAgainstFwdTable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tr Trie
	tables := make([]rule.FwdTable, 4)
	for b := range tables {
		for i := 0; i < 150; i++ {
			r := rule.FwdRule{
				Prefix: rule.P(rng.Uint32(), []int{0, 8, 12, 16, 24, 32}[rng.Intn(6)]),
				Port:   rng.Intn(5) - 1, // includes Drop
			}
			tables[b].Add(r)
			tr.Insert(b, r)
		}
	}
	for probe := 0; probe < 2000; probe++ {
		ip := rng.Uint32()
		if probe%3 == 0 { // bias toward installed prefixes
			b := rng.Intn(4)
			ip = tables[b].Rules[rng.Intn(len(tables[b].Rules))].Prefix.Value | rng.Uint32()>>16
		}
		matches := tr.Matching(ip)
		for b := range tables {
			wantPort, wantOK := tables[b].Lookup(ip)
			gotPort, gotOK := LookupBox(matches, b)
			if wantOK != gotOK || (wantOK && wantPort != gotPort) {
				t.Fatalf("ip %08x box %d: trie (%d,%v) vs table (%d,%v)",
					ip, b, gotPort, gotOK, wantPort, wantOK)
			}
		}
	}
}

func TestTrieOnGeneratedDataset(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 44, RuleScale: 0.01})
	var tr Trie
	for b := range ds.Boxes {
		for _, r := range ds.Boxes[b].Fwd.Rules {
			tr.Insert(b, r)
		}
	}
	if tr.Len() != ds.NumRules() {
		t.Fatalf("trie holds %d rules, dataset has %d", tr.Len(), ds.NumRules())
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		f := ds.RandomFields(rng)
		matches := tr.Matching(f.Dst)
		for b := range ds.Boxes {
			wantPort, wantOK := ds.Boxes[b].Fwd.Lookup(f.Dst)
			gotPort, gotOK := LookupBox(matches, b)
			if wantOK != gotOK || (wantOK && wantPort != gotPort) {
				t.Fatalf("trie and FIB disagree at box %d for %08x", b, f.Dst)
			}
		}
	}
}
