package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apclassifier/internal/bdd"
)

func TestDirSaveRetentionAndRestore(t *testing.T) {
	_, src := testSource(t, 23)
	dir, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 3; i++ {
		p, err := dir.Save(src)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	kept := dir.Checkpoints()
	if len(kept) != 2 || kept[0] != paths[1] || kept[1] != paths[2] {
		t.Fatalf("retention kept %v, want %v", kept, paths[1:])
	}
	if _, err := os.Stat(paths[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned checkpoint still on disk: %v", err)
	}
	latest, err := dir.Latest()
	if err != nil || latest != paths[2] {
		t.Fatalf("Latest = %q, %v; want %q", latest, err, paths[2])
	}
	// No stray temp files after committed saves.
	entries, err := os.ReadDir(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	res, err := dir.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != src.Snap.Version() {
		t.Fatal("restored wrong epoch")
	}
}

func TestDirReopenContinuesSequence(t *testing.T) {
	_, src := testSource(t, 29)
	path := t.TempDir()
	d1, err := Open(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d1.Save(src)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d2.Save(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("reopened dir reused a checkpoint filename")
	}
	if got := d2.Checkpoints(); len(got) != 2 {
		t.Fatalf("reopened dir sees %d checkpoints, want 2", len(got))
	}
}

// TestRestoreFallsBackPastCorruption corrupts the newest checkpoint;
// Restore must land on the older intact one. This is the reason the
// manifest keeps K generations.
func TestRestoreFallsBackPastCorruption(t *testing.T) {
	_, src := testSource(t, 31)
	dir, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	good, err := dir.Save(src)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := dir.Save(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := dir.Restore()
	if err != nil {
		t.Fatalf("fallback restore failed: %v", err)
	}
	if res.Epoch != src.Snap.Version() {
		t.Fatal("fallback restored wrong state")
	}
	// Sanity: the good file is the one that loaded (the bad one errors).
	if _, err := RestoreFile(bad); err == nil {
		t.Fatal("corrupted file decoded")
	}
	if _, err := RestoreFile(good); err != nil {
		t.Fatal(err)
	}
	// All corrupt → joined error naming every file.
	raw2, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw2[len(raw2)/3] ^= 0xFF
	if err := os.WriteFile(good, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Restore(); err == nil {
		t.Fatal("restore succeeded with every checkpoint corrupt")
	} else if !strings.Contains(err.Error(), filepath.Base(good)) || !strings.Contains(err.Error(), filepath.Base(bad)) {
		t.Fatalf("joined error does not name both files: %v", err)
	}
}

func TestEmptyDir(t *testing.T) {
	dir, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Latest(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty dir: %v, want ErrNotExist", err)
	}
	if _, err := dir.Restore(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Restore on empty dir: %v, want ErrNotExist", err)
	}
}

// TestRunner drives the background checkpointer end to end: initial
// checkpoint, publish-triggered saves with coalescing, and the final
// save at Stop.
func TestRunner(t *testing.T) {
	m, src := testSource(t, 37)
	dir, err := Open(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() *Source {
		return &Source{Snap: m.Snapshot(), Dataset: src.Dataset, Method: m.Method()}
	}
	r := StartRunner(dir, m, capture, RunnerConfig{MinGap: 20 * time.Millisecond})

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return len(dir.Checkpoints()) >= 1 }, "initial checkpoint")

	// A publish triggers a save (possibly deferred by the coalescing
	// window, never dropped).
	n := len(dir.Checkpoints())
	m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0xC0000000, 4, 32) })
	waitFor(func() bool { return len(dir.Checkpoints()) > n }, "publish-triggered checkpoint")

	// A burst inside one window coalesces: far fewer checkpoints than
	// updates.
	before := len(dir.Checkpoints())
	for i := 0; i < 30; i++ {
		m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, uint64(i)<<24, 8, 32) })
	}
	waitFor(func() bool {
		latest, err := dir.Latest()
		if err != nil {
			return false
		}
		res, err := RestoreFile(latest)
		return err == nil && res.Manager.NumLive() == m.NumLive()
	}, "coalesced checkpoint capturing the burst")
	if grew := len(dir.Checkpoints()) - before; grew > 10 {
		t.Fatalf("30 updates produced %d checkpoints; coalescing is not working", grew)
	}

	// Stop writes a final checkpoint when dirty.
	m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0xDE000000, 8, 32) })
	r.Stop()
	latest, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RestoreFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manager.NumLive() != m.NumLive() {
		t.Fatalf("final checkpoint is stale: %d live, manager has %d", res.Manager.NumLive(), m.NumLive())
	}
}
