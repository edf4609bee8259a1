//go:build apdebug

// Debug-tagged flat-core checks: publish compiles the flat classifier and
// captures the snapshot in one critical section, so a snapshot must never
// serve a flat form compiled from another epoch's tree or view. The
// sanitizer that enforces this at classify time is exercised both ways —
// a healthy epoch passes, a hand-crafted stale-compile panics.
package aptree

import (
	"math/rand"
	"testing"

	"apclassifier/internal/bdd"
)

func TestApdebugFlatEpochMismatchPanics(t *testing.T) {
	m := NewManager(16, MethodQuick)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		bits := uint64(rng.Uint32()) >> 20
		m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, bits, 1+rng.Intn(10), 16)
		})
	}
	old := m.Snapshot()
	m.Reconstruct(false)
	cur := m.Snapshot()
	if old.Flat() == nil || cur.Flat() == nil {
		t.Fatal("expected flat forms on both epochs")
	}

	pkt := []byte{0xA5, 0x3C}
	// Healthy epochs, retired or live, classify without tripping.
	if leaf, _ := old.Classify(pkt); leaf == nil {
		t.Fatal("retired epoch failed to classify")
	}
	if leaf, _ := cur.Classify(pkt); leaf == nil {
		t.Fatal("live epoch failed to classify")
	}

	// A snapshot serving the retired epoch's flat form — the stale-compile
	// bug debugCheckFlat exists to catch — must panic at classify time.
	// Built field by field: a Snapshot holds an atomic pointer and must
	// not be copied.
	bad := &Snapshot{tree: cur.tree, view: cur.view, flat: old.flat, live: cur.live, numLive: cur.numLive, version: cur.version}
	defer func() {
		if recover() == nil {
			t.Fatal("classify through a stale flat form did not panic under apdebug")
		}
	}()
	bad.Classify(pkt)
}
