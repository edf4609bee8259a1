package trie

import (
	"math/rand"
	"testing"

	"apclassifier/internal/netgen"
)

func TestSimMatchesOracleInternet2(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 81, RuleScale: 0.01})
	s := NewSim(ds)
	rng := rand.New(rand.NewSource(81))
	work := 0
	for i := 0; i < 500; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := s.Behavior(ingress, f)
		if len(want.Delivered) != len(got.Delivered) {
			t.Fatalf("probe %d: trie %v vs oracle %v", i, got.Delivered, want.Delivered)
		}
		for j := range want.Delivered {
			if want.Delivered[j] != got.Delivered[j] {
				t.Fatalf("probe %d: wrong host", i)
			}
		}
		if len(want.DropBoxes) != len(got.DropBoxes) {
			t.Fatalf("probe %d: drops differ", i)
		}
		work += got.RulesCollected
	}
	if work == 0 {
		t.Fatal("trie queries must collect rules")
	}
}

func TestSimMatchesOracleStanfordWithACLs(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 82, RuleScale: 0.003})
	s := NewSim(ds)
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 300; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := s.Behavior(ingress, f)
		if (len(want.Delivered) > 0) != (len(got.Delivered) > 0) {
			t.Fatalf("probe %d: trie disagrees with oracle under ACLs", i)
		}
	}
}

func TestSimWorkScalesWithRuleVolume(t *testing.T) {
	small := NewSim(netgen.Internet2Like(netgen.Config{Seed: 83, RuleScale: 0.005}))
	big := NewSim(netgen.Internet2Like(netgen.Config{Seed: 83, RuleScale: 0.05}))
	rng := rand.New(rand.NewSource(83))
	ws, wb := 0, 0
	for i := 0; i < 200; i++ {
		fs := small.ds.RandomFields(rng)
		ws += small.Behavior(rng.Intn(9), fs).RulesCollected
		fb := big.ds.RandomFields(rng)
		wb += big.Behavior(rng.Intn(9), fb).RulesCollected
	}
	if wb <= ws {
		t.Fatalf("trie work should grow with rules: %d !> %d", wb, ws)
	}
}
