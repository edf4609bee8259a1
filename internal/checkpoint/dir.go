package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const manifestName = "MANIFEST"

// Dir manages a checkpoint directory: atomic writes, a manifest of
// committed checkpoints (oldest first), retention of the last K, and a
// restore path that falls back past corrupt entries. All methods are
// safe for concurrent use; saves serialize.
type Dir struct {
	path string
	keep int

	mu sync.Mutex
	//lint:guard mu
	seq int
	// entries is the manifest: committed checkpoint filenames, oldest
	// first. A file is only an entry after its rename and the manifest
	// rewrite both hit disk, so every entry is a complete, synced file.
	//lint:guard mu
	entries []string
}

// Open creates (if needed) and loads a checkpoint directory keeping the
// last keep checkpoints (minimum 1).
func Open(path string, keep int) (*Dir, error) {
	if keep < 1 {
		keep = 1
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	d := &Dir{path: path, keep: keep}
	if err := d.loadManifestLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// Path returns the directory being managed.
func (d *Dir) Path() string { return d.path }

// Checkpoints returns the committed checkpoint paths, oldest first.
func (d *Dir) Checkpoints() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.entries))
	for i, e := range d.entries {
		out[i] = filepath.Join(d.path, e)
	}
	return out
}

// loadManifestLocked rebuilds the entry list from the MANIFEST, then
// reconciles it against a directory scan. The manifest is the intent
// log, but it is not load-bearing for recovery: if it is missing,
// truncated, or lists files that are gone, every well-formed ckpt-*.apc
// actually on disk is adopted (in name order, which is seq order — the
// names are zero-padded), so the newest-first restore fallback still
// reaches every surviving checkpoint. A garbage manifest line is
// dropped rather than trusted; whether each adopted file is intact is
// Restore's job, which decodes newest-first past corruption.
func (d *Dir) loadManifestLocked() error {
	seen := make(map[string]bool)
	b, err := os.ReadFile(filepath.Join(d.path, manifestName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if seqOf(line) < 0 || seen[line] {
				continue // garbage or truncated line, or duplicate
			}
			seen[line] = true
			d.entries = append(d.entries, line)
		}
	}
	// Scan for committed checkpoints the manifest does not know: the
	// manifest itself may have been lost, or a crash between a file
	// rename and the manifest rewrite left an orphan. Both are complete,
	// synced files — adopt them.
	names, err := os.ReadDir(d.path)
	if err != nil {
		return err
	}
	adopted := false
	for _, de := range names {
		if name := de.Name(); !de.IsDir() && seqOf(name) >= 0 && !seen[name] {
			seen[name] = true
			d.entries = append(d.entries, name)
			adopted = true
		}
	}
	if adopted {
		// Zero-padded names sort lexicographically in seq order.
		sort.Strings(d.entries)
	}
	for _, name := range d.entries {
		if n := seqOf(name); n >= d.seq {
			d.seq = n + 1
		}
	}
	return nil
}

// seqOf parses a checkpoint filename, returning its sequence number or
// -1 when the name is not a well-formed ckpt-%08d.apc.
func seqOf(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "ckpt-%08d.apc", &n); err != nil || name != fmt.Sprintf("ckpt-%08d.apc", n) {
		return -1
	}
	return n
}

// Save encodes src into a new checkpoint file with the atomic-write
// protocol — temp file, fsync, rename, directory fsync, manifest
// rewrite (same protocol) — then prunes checkpoints beyond the
// retention count. It returns the committed path. A crash at any point
// leaves the directory with its previous manifest and files intact.
func (d *Dir) Save(src *Source) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	path, size, err := d.saveLocked(src)
	if err != nil {
		mSaveErrors.Inc()
		return "", err
	}
	mSaves.Inc()
	mSaveDur.Record(time.Since(start).Seconds())
	mLastSize.Set(size)
	lastSaveUnixNano.Store(time.Now().UnixNano())
	return path, nil
}

func (d *Dir) saveLocked(src *Source) (string, int64, error) {
	tmpName, size, err := writeTemp(d.path, src)
	if err != nil {
		return "", 0, err
	}
	final, err := d.commitLocked(tmpName)
	return final, size, err
}

// WriteFile encodes src to path with the same atomic-write protocol as
// Dir.Save, without a managed directory: temp file beside path, fsync,
// rename, directory fsync. A refused or failed encode leaves neither path
// nor the temp file behind.
func WriteFile(path string, src *Source) error {
	tmpName, _, err := writeTemp(filepath.Dir(path), src)
	if err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName) // the rename error is the one to report
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeTemp encodes src into a synced, closed temp file in dir and
// returns its name and size. On any error the temp file is removed.
func writeTemp(dir string, src *Source) (string, int64, error) {
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return "", 0, err
	}
	tmpName := tmp.Name()
	fail := func(err error) (string, int64, error) {
		// Best-effort cleanup of a temp file we are abandoning; the
		// original error is what the caller needs.
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return "", 0, err
	}
	if err := Encode(tmp, src); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	st, err := tmp.Stat()
	if err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return "", 0, err
	}
	return tmpName, st.Size(), nil
}

// commitLocked promotes a synced temp file into the next committed
// checkpoint: rename, directory fsync, manifest rewrite, prune. The
// manifest is rewritten before anything it used to reference is
// deleted: a crash between the two steps leaves orphan files (which
// the Open-time directory scan re-adopts), never dangling entries.
func (d *Dir) commitLocked(tmpName string) (string, error) {
	name := fmt.Sprintf("ckpt-%08d.apc", d.seq)
	final := filepath.Join(d.path, name)
	if err := os.Rename(tmpName, final); err != nil {
		_ = os.Remove(tmpName)
		return "", err
	}
	if err := syncDir(d.path); err != nil {
		return "", err
	}
	d.seq++
	d.entries = append(d.entries, name)
	var pruned []string
	for len(d.entries) > d.keep {
		pruned = append(pruned, d.entries[0])
		d.entries = d.entries[1:]
	}
	if err := d.writeManifestLocked(); err != nil {
		return "", err
	}
	for _, old := range pruned {
		if err := os.Remove(filepath.Join(d.path, old)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
	}
	return final, nil
}

// Ingest commits checkpoint bytes fetched from elsewhere — a peer
// worker's GET /checkpoint/latest during cluster bootstrap — as this
// directory's next checkpoint, after fully decoding the bytes to prove
// they are an intact checkpoint (a truncated transfer must not become
// the newest entry the next restore trusts first). The committed path
// is returned; Restore and Latest see it like any saved checkpoint.
func (d *Dir) Ingest(r io.Reader) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.path, ".tmp-ckpt-*")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	fail := func(err error) (string, error) {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return "", err
	}
	if _, err := io.Copy(tmp, r); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	if _, err := Decode(tmp); err != nil {
		return fail(fmt.Errorf("checkpoint: ingest rejected: %w", err))
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return "", err
	}
	return d.commitLocked(tmpName)
}

func (d *Dir) writeManifestLocked() error {
	tmp, err := os.CreateTemp(d.path, ".tmp-manifest-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if _, err := tmp.WriteString(strings.Join(d.entries, "\n") + "\n"); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(d.path, manifestName)); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return syncDir(d.path)
}

// syncDir fsyncs a directory so a completed rename is durable — without
// it the new name may be lost in a crash even though the file data is
// on disk.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Latest returns the newest committed checkpoint path, or a wrapped
// os.ErrNotExist if the directory holds none.
func (d *Dir) Latest() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.entries) == 0 {
		return "", fmt.Errorf("checkpoint: %s holds no checkpoints: %w", d.path, os.ErrNotExist)
	}
	return filepath.Join(d.path, d.entries[len(d.entries)-1]), nil
}

// Restore decodes the newest checkpoint, falling back to older entries
// when a file is missing, truncated, or corrupt — the manifest keeps K
// generations precisely so one bad write does not strand the service.
// The returned error joins every per-file failure when nothing loads.
func (d *Dir) Restore() (*Restored, error) {
	paths := d.Checkpoints()
	if len(paths) == 0 {
		return nil, fmt.Errorf("checkpoint: %s holds no checkpoints: %w", d.path, os.ErrNotExist)
	}
	var errs []error
	for i := len(paths) - 1; i >= 0; i-- {
		res, err := RestoreFile(paths[i])
		if err == nil {
			return res, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", paths[i], err))
		if !IsDecodeError(err) && !errors.Is(err, os.ErrNotExist) {
			break // a real I/O fault; older files will not fare better
		}
	}
	return nil, errors.Join(errs...)
}

// RestoreFile decodes one checkpoint file.
func RestoreFile(path string) (*Restored, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
