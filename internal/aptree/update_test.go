package aptree

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// addPred places predicate id, which the tree has not placed, as Tx.Add
// does: its slot moves from bdd.False to p over the region p.
func addPred(t *Tree, id int32, p bdd.Ref) *Tree { return t.ReplacePredicate(id, p, p) }

// removePred unplaces predicate id as Tx.Remove does: its slot moves to
// bdd.False over the region its BDD covers.
func removePred(t *Tree, id int32) *Tree { return t.ReplacePredicate(id, bdd.False, t.Pred(id)) }

func TestAddPredicateKeepsClassificationCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := bdd.New(16)
	initial := randomPrefixPreds(d, 10, 16, rng)
	in := buildInput(d, initial, rng)
	tree := Build(in, MethodOAPT)

	preds := append([]bdd.Ref(nil), initial...)
	live := append([]int32(nil), in.Live...)
	for round := 0; round < 15; round++ {
		p := d.Retain(d.FromPrefix(0, uint64(rng.Uint32()>>16), 1+rng.Intn(8), 16))
		id := int32(len(preds))
		preds = append(preds, p)
		live = append(live, id)
		tree = addPred(tree, id, p)
		checkClassification(t, tree, d, preds, live, 2, rng, 100)
	}
	// Structural sanity after many updates.
	if err := tree.Validate(live); err != nil {
		t.Fatal(err)
	}
}

func TestAddPredicateLeafAccounting(t *testing.T) {
	d := bdd.New(8)
	in := Input{D: d, Atoms: predicate.Compute(d, nil)}
	tree := Build(in, MethodOrder) // single leaf
	p := d.Retain(d.FromPrefix(0, 0x80, 1, 8))
	tree = addPred(tree, 0, p)
	if tree.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2 after first split", tree.NumLeaves())
	}
	// A predicate equal to an existing atom must not split anything.
	tree = addPred(tree, 1, p)
	if tree.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, duplicate predicate must not split", tree.NumLeaves())
	}
	// Its membership bit must still be correct on both leaves.
	pkt := []byte{0xFF}
	leaf := tree.Classify(pkt)
	if !leaf.Member.Get(0) || !leaf.Member.Get(1) {
		t.Fatal("membership bits for duplicate predicate missing")
	}
	pkt = []byte{0x00}
	leaf = tree.Classify(pkt)
	if leaf.Member.Get(0) || leaf.Member.Get(1) {
		t.Fatal("membership bits set on non-matching leaf")
	}
}

// TestAddNeverReusesID pins why an add always lands on an unplaced slot:
// Tx.Add takes its ID from the registry, which never issues one twice,
// not even after the slot died, so the tree's False → p move starts from a
// slot no leaf carries a bit for.
func TestAddNeverReusesID(t *testing.T) {
	m := NewManager(8, MethodOrder)
	build := func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0x80, 1, 8) }
	a := m.AddPredicate(build)
	m.RemovePredicate(a)
	b := m.AddPredicate(build)
	if a == b {
		t.Fatalf("add after removal reissued ID %d", a)
	}
	tree := m.Tree()
	if tree.Pred(a) != bdd.False || tree.Pred(b) == bdd.False {
		t.Fatalf("slots: dead %d holds %d, live %d holds %d", a, tree.Pred(a), b, tree.Pred(b))
	}
	if err := tree.Validate([]int32{a, b}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	d := bdd.New(8)
	r := NewRegistry()
	a := r.Add(d.Var(0))
	b := r.Add(d.Var(1))
	c := r.Add(d.Var(2))
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("ids = %d,%d,%d", a, b, c)
	}
	if len(r.LiveIDs()) != 3 || r.NumIDs() != 3 {
		t.Fatal("counts wrong")
	}
	r.Remove(b)
	if r.IsLive(b) || !r.IsLive(a) {
		t.Fatal("liveness wrong after removal")
	}
	if r.Ref(b) != bdd.False || r.Ref(a) != d.Var(0) {
		t.Fatal("removal must clear exactly the dead slot's ref")
	}
	if len(r.LiveIDs()) != 2 {
		t.Fatal("live count wrong after removal")
	}
	ids := r.LiveIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("LiveIDs = %v", ids)
	}
	cl := r.Clone()
	cl.Remove(a)
	if !r.IsLive(a) || r.Ref(a) != d.Var(0) {
		t.Fatal("Clone must not alias")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double removal must panic")
		}
	}()
	r.Remove(b)
}

func addRandomPredicate(m *Manager, rng *rand.Rand) int32 {
	v := uint64(rng.Uint32() >> 16)
	l := 1 + rng.Intn(8)
	return m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.FromPrefix(0, v, l, 16)
	})
}

func TestManagerBasicFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewManager(16, MethodOAPT)
	var ids []int32
	for i := 0; i < 20; i++ {
		ids = append(ids, addRandomPredicate(m, rng))
	}
	if m.NumLive() != 20 {
		t.Fatalf("live = %d", m.NumLive())
	}
	// Classification correctness against direct evaluation.
	checkManager := func() {
		d := m.DD()
		for i := 0; i < 200; i++ {
			pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			leaf, _ := m.Classify(pkt)
			m.mu.RLock()
			for _, id := range m.reg.LiveIDs() {
				want := d.EvalBits(m.reg.Ref(id), pkt)
				if leaf.Member.Get(int(id)) != want {
					m.mu.RUnlock()
					t.Fatalf("membership bit %d wrong", id)
				}
			}
			m.mu.RUnlock()
		}
	}
	checkManager()

	m.RemovePredicate(ids[3])
	m.RemovePredicate(ids[7])
	if m.NumLive() != 18 {
		t.Fatalf("live = %d after removals", m.NumLive())
	}
	checkManager()
	v0 := m.Version()
	m.Reconstruct(false)
	if m.Version() != v0+1 {
		t.Fatal("version must bump at swap")
	}
	checkManager()
	// The rebuilt tree is built from live predicates only.
	if got := m.Tree().NumLeaves(); got < 2 {
		t.Fatalf("suspicious leaf count %d", got)
	}
	if err := m.Tree().Validate(m.LiveIDs()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerReconstructWithConcurrentTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 30; i++ {
		addRandomPredicate(m, rng)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Query workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pkt := []byte{byte(r.Intn(256)), byte(r.Intn(256))}
				leaf, _ := m.Classify(pkt)
				if leaf == nil || !leaf.IsLeaf() {
					t.Error("bad classification result")
					return
				}
			}
		}(int64(w))
	}
	// Update worker.
	wg.Add(1)
	var mu sync.Mutex
	var added []int32
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := addRandomPredicate(m, r)
			mu.Lock()
			added = append(added, id)
			mu.Unlock()
			if i%5 == 4 {
				mu.Lock()
				k := r.Intn(len(added))
				victim := added[k]
				added = append(added[:k], added[k+1:]...)
				mu.Unlock()
				m.RemovePredicate(victim)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Several reconstructions while traffic flows.
	for i := 0; i < 5; i++ {
		m.Reconstruct(i%2 == 0)
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Post-condition: classification still agrees with direct evaluation.
	d := m.DD()
	for i := 0; i < 300; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		leaf, _ := m.Classify(pkt)
		m.mu.RLock()
		for _, id := range m.reg.LiveIDs() {
			want := d.EvalBits(m.reg.Ref(id), pkt)
			if leaf.Member.Get(int(id)) != want {
				m.mu.RUnlock()
				t.Fatalf("membership bit %d wrong after concurrent churn", id)
			}
		}
		m.mu.RUnlock()
	}
}

func TestManagerWeightedReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 25; i++ {
		addRandomPredicate(m, rng)
	}
	m.Reconstruct(false)

	// Hammer a single atom, then rebuild weighted: its depth must not grow.
	pkt := []byte{0xAB, 0xCD}
	leafBefore, _ := m.Classify(pkt)
	for i := 0; i < 10000; i++ {
		m.Classify(pkt)
	}
	m.Reconstruct(true)
	leafAfter, _ := m.Classify(pkt)
	if leafAfter.Depth > leafBefore.Depth {
		t.Fatalf("hot atom got deeper after weighted rebuild: %d -> %d", leafBefore.Depth, leafAfter.Depth)
	}
	if err := m.Tree().Validate(m.LiveIDs()); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatesSinceSwapAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := NewManager(16, MethodOAPT)
	if m.UpdatesSinceSwap() != 0 {
		t.Fatal("fresh manager has no updates")
	}
	ids := make([]int32, 0)
	for i := 0; i < 5; i++ {
		ids = append(ids, addRandomPredicate(m, rng))
	}
	m.RemovePredicate(ids[0])
	if got := m.UpdatesSinceSwap(); got != 6 {
		t.Fatalf("UpdatesSinceSwap = %d, want 6", got)
	}
	m.Reconstruct(false)
	if got := m.UpdatesSinceSwap(); got != 0 {
		t.Fatalf("UpdatesSinceSwap = %d after swap, want 0", got)
	}
}

func TestAutoReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 10; i++ {
		addRandomPredicate(m, rng)
	}
	m.Reconstruct(false) // reset the update counter before arming
	v0 := m.Version()
	stop := m.AutoReconstruct(5, 2*time.Millisecond, false)
	defer stop()
	// Below threshold: no rebuild.
	for i := 0; i < 3; i++ {
		addRandomPredicate(m, rng)
	}
	time.Sleep(15 * time.Millisecond)
	if m.Version() != v0 {
		t.Fatal("rebuild fired below threshold")
	}
	// Cross the threshold: a rebuild must fire.
	for i := 0; i < 4; i++ {
		addRandomPredicate(m, rng)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Version() == v0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if m.Version() == v0 {
		t.Fatal("auto-reconstruction did not fire above threshold")
	}
	// Correctness preserved.
	d := m.DD()
	for i := 0; i < 100; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		leaf, _ := m.Classify(pkt)
		for _, id := range m.LiveIDs() {
			if leaf.Member.Get(int(id)) != d.EvalBits(m.Ref(id), pkt) {
				t.Fatal("classification wrong after auto-reconstruct")
			}
		}
	}
}

func TestManagerEmptyReconstruct(t *testing.T) {
	m := NewManager(8, MethodOAPT)
	m.Reconstruct(false)
	leaf, _ := m.Classify([]byte{0x12})
	if leaf.AtomID != 0 {
		t.Fatal("empty manager must classify everything to atom 0")
	}
}

func TestManagerJournalReplayOrdering(t *testing.T) {
	// Adds issued during a rebuild must be visible in the swapped tree.
	rng := rand.New(rand.NewSource(24))
	m := NewManager(16, MethodOAPT)
	for i := 0; i < 10; i++ {
		addRandomPredicate(m, rng)
	}
	done := make(chan struct{})
	go func() {
		m.Reconstruct(false)
		close(done)
	}()
	var lateIDs []int32
	for i := 0; i < 10; i++ {
		lateIDs = append(lateIDs, addRandomPredicate(m, rng))
	}
	<-done
	d := m.DD()
	for i := 0; i < 200; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		leaf, _ := m.Classify(pkt)
		m.mu.RLock()
		for _, id := range lateIDs {
			if m.reg.IsLive(id) {
				want := d.EvalBits(m.reg.Ref(id), pkt)
				if leaf.Member.Get(int(id)) != want {
					m.mu.RUnlock()
					t.Fatalf("late predicate %d not correctly represented after swap", id)
				}
			}
		}
		m.mu.RUnlock()
	}
}
