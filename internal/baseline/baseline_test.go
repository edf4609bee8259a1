package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"apclassifier"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/predicate"
)

func compiled(t *testing.T, seed int64, scale float64) (*apclassifier.Classifier, *netgen.Dataset) {
	t.Helper()
	ds := netgen.Internet2Like(netgen.Config{Seed: seed, RuleScale: scale})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, ds
}

func liveRefs(c *apclassifier.Classifier) (ids []int32, refs []bdd.Ref, capBits int) {
	m := c.Manager
	ids = m.LiveIDs()
	refs = make([]bdd.Ref, len(ids))
	var maxID int32
	for i, id := range ids {
		refs[i] = m.Ref(id)
		if id > maxID {
			maxID = id
		}
	}
	return ids, refs, int(maxID) + 1
}

func TestAPLinearMatchesTree(t *testing.T) {
	c, ds := compiled(t, 31, 0.01)
	d := c.Manager.DD()
	ids, refs, capBits := liveRefs(c)
	intIDs := make([]int, len(ids))
	for i, id := range ids {
		intIDs[i] = int(id)
	}
	atoms := predicate.ComputeMapped(d, refs, intIDs, capBits)
	ap := &APLinear{D: d, Atoms: atoms}

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		f := ds.RandomFields(rng)
		pkt := ds.PacketFromFields(f)
		leaf := c.Classify(pkt)
		member := ap.Atoms.Member[ap.Classify(pkt)]
		for _, id := range ids {
			if member.Get(int(id)) != leaf.Member.Get(int(id)) {
				t.Fatalf("probe %d: APLinear and tree disagree on predicate %d", i, id)
			}
		}
		if ap.Classify(pkt) < 0 {
			t.Fatal("APLinear failed to classify")
		}
	}
}

func TestPScanMatchesTree(t *testing.T) {
	c, ds := compiled(t, 32, 0.01)
	ids, refs, capBits := liveRefs(c)
	ps := NewPScan(c.Manager.DD(), ids, refs, capBits)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 300; i++ {
		pkt := ds.PacketFromFields(ds.RandomFields(rng))
		leaf := c.Classify(pkt)
		member := ps.Member(pkt)
		for _, id := range ids {
			if member.Get(int(id)) != leaf.Member.Get(int(id)) {
				t.Fatalf("probe %d: PScan and tree disagree on predicate %d", i, id)
			}
		}
	}
}

func TestFwdSimMatchesOracle(t *testing.T) {
	c, ds := compiled(t, 33, 0.01)
	sim := ManagerEnv(c.Manager, c.Net)
	rng := rand.New(rand.NewSource(33))
	checks := 0
	for i := 0; i < 300; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := sim.Behavior(ingress, ds.PacketFromFields(f))
		if (len(want.Delivered) > 0) != (len(got.Delivered) > 0) {
			t.Fatalf("probe %d: FwdSim disagrees with oracle", i)
		}
		if len(want.Delivered) > 0 && !slices.Contains(got.Delivered, want.Delivered[0]) {
			t.Fatalf("probe %d: wrong host", i)
		}
		checks += got.PredChecks
	}
	if checks == 0 {
		t.Fatal("FwdSim must evaluate predicates")
	}
	// The paper's point: FwdSim checks far more predicates per packet than
	// the AP Tree's average depth.
	avgChecks := float64(checks) / 300
	if avgChecks <= c.AverageDepth() {
		t.Fatalf("FwdSim avg checks %.1f should exceed tree depth %.1f", avgChecks, c.AverageDepth())
	}
}

func TestFwdSimStanfordWithACLs(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 34, RuleScale: 0.003})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := ManagerEnv(c.Manager, c.Net)
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 150; i++ {
		f := ds.RandomFields(rng)
		ingress := rng.Intn(len(ds.Boxes))
		want := ds.Simulate(ingress, f)
		got := sim.Behavior(ingress, ds.PacketFromFields(f))
		if (len(want.Delivered) > 0) != (len(got.Delivered) > 0) {
			t.Fatalf("probe %d: FwdSim disagrees with oracle on Stanford", i)
		}
	}
}
