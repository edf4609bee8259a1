package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
)

// testSource builds a manager with live and dead predicate slots (and one
// live slot holding the empty predicate, as an all-deny ACL registers) over
// a small real dataset, plus wiring shaped to the dataset's boxes and a
// delta cursor, published with the epoch the Source pins. The
// predicates are synthetic (the codec never cross-checks them against
// the dataset's rules; the facade-level differential test covers that),
// which keeps this unit test fast.
func testSource(t testing.TB, seed int64) (*aptree.Manager, *Source) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := netgen.Internet2Like(netgen.Config{Seed: seed, RuleScale: 0.002})
	m := aptree.NewManager(ds.Layout.Bits(), aptree.MethodOAPT)
	var ids []int32
	for i := 0; i < 18; i++ {
		v := uint64(rng.Uint32())
		l := 1 + rng.Intn(16)
		ids = append(ids, m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, v, l, 32)
		}))
	}
	m.Reconstruct(false)
	for i := 0; i < 4; i++ {
		v := uint64(rng.Uint32())
		l := 1 + rng.Intn(16)
		ids = append(ids, m.AddPredicate(func(d *bdd.DD) bdd.Ref {
			return d.FromPrefix(0, v, l, 32)
		}))
	}
	m.RemovePredicate(ids[1])
	m.RemovePredicate(ids[19])
	m.AddPredicate(func(*bdd.DD) bdd.Ref { return bdd.False })

	live := m.LiveIDs() // wiring names live IDs only, as the facade guarantees
	numPorts := make([]int, len(ds.Boxes))
	for b := range numPorts {
		numPorts[b] = ds.Boxes[b].NumPorts
	}
	wiring := network.NewWiring(numPorts)
	wiring.Seq = uint64(seed)*100 + 7
	for b, ports := range numPorts {
		for p := 0; p < ports; p++ {
			wiring.SetFwd(b, p, live[(b*7+p)%len(live)])
		}
		if b%3 == 0 {
			wiring.SetInACL(b, live[b%len(live)])
		}
	}
	m.Update(func(tx *aptree.Tx) { tx.SetData(wiring) })
	return m, &Source{Snap: m.Snapshot(), Dataset: ds, Method: m.Method()}
}

// sameWiring reports whether two wirings bind every slot alike and carry
// the same cursor.
func sameWiring(a, b *network.Wiring) bool {
	if a.Seq != b.Seq || a.NumBoxes() != b.NumBoxes() {
		return false
	}
	for box := 0; box < a.NumBoxes(); box++ {
		if a.InACL(box) != b.InACL(box) || a.NumPorts(box) != b.NumPorts(box) {
			return false
		}
		for p := 0; p < a.NumPorts(box); p++ {
			if a.Fwd(box, p) != b.Fwd(box, p) || a.OutACL(box, p) != b.OutACL(box, p) {
				return false
			}
		}
	}
	return true
}

func encodeToBytes(t *testing.T, src *Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	m, src := testSource(t, 5)
	raw := encodeToBytes(t, src)
	res, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != src.Snap.Version() {
		t.Fatalf("epoch %d, want %d", res.Epoch, src.Snap.Version())
	}
	if res.Method != src.Method {
		t.Fatalf("method %v, want %v", res.Method, src.Method)
	}
	if res.Manager.Version() != src.Snap.Version() {
		t.Fatal("restored manager must republish the checkpointed epoch")
	}
	if res.Manager.NumLive() != m.NumLive() {
		t.Fatalf("live %d, want %d", res.Manager.NumLive(), m.NumLive())
	}
	if got, want := res.Manager.Snapshot().Tree().NumLeaves(), src.Snap.Tree().NumLeaves(); got != want {
		t.Fatalf("leaves %d, want %d", got, want)
	}
	if got, want := network.WiringOf(res.Manager.Snapshot()), network.WiringOf(src.Snap); !sameWiring(got, want) {
		t.Fatalf("wiring mismatch (cursor %d, want %d)", got.Seq, want.Seq)
	}
	if res.Dataset.Name != src.Dataset.Name || len(res.Dataset.Boxes) != len(src.Dataset.Boxes) {
		t.Fatal("dataset did not round-trip")
	}

	// Behavioral identity on random headers: the restored tree must land
	// every packet on a leaf with identical membership bits.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		a, _ := m.Classify(pkt)
		b, _ := res.Manager.Classify(pkt)
		for id := int32(0); id < int32(src.Snap.Tree().NumPreds()); id++ {
			if a.Member.Get(int(id)) != b.Member.Get(int(id)) {
				t.Fatalf("packet %x: membership bit %d differs", pkt, id)
			}
		}
	}
	if err := res.SelfCheck(200, 7); err != nil {
		t.Fatal(err)
	}

	// The restored manager is a full peer: it accepts updates and
	// reconstructs, with the epoch clock continuing forward.
	v := res.Manager.Version()
	res.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0x0A000000, 8, 32) })
	res.Manager.Reconstruct(true)
	if res.Manager.Version() != v+1 {
		t.Fatal("epoch clock did not continue after restore")
	}
}

// TestDecodeDeterministic: decoding the same bytes twice yields managers
// that classify identically (the hash-consed rebuild is deterministic).
func TestEncodeDecodeStable(t *testing.T) {
	_, src := testSource(t, 8)
	raw := encodeToBytes(t, src)
	r1, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		pkt := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		a, _ := r1.Manager.Classify(pkt)
		b, _ := r2.Manager.Classify(pkt)
		if a.AtomID != b.AtomID {
			t.Fatalf("packet %x: atoms %d vs %d", pkt, a.AtomID, b.AtomID)
		}
	}
}

// TestCorruptionRejected flips single bytes across the file and checks
// every flip is rejected with a typed error — the CRC-per-section layout
// means no corruption goes unnoticed — and that the rejection counter
// moves.
func TestCorruptionRejected(t *testing.T) {
	_, src := testSource(t, 11)
	raw := encodeToBytes(t, src)
	before := mCorrupt.Value()
	flips := 0
	for pos := 0; pos < len(raw); pos += 97 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		} else if !IsDecodeError(err) {
			t.Fatalf("flip at byte %d: untyped error %v", pos, err)
		}
		flips++
	}
	if got := mCorrupt.Value() - before; got != uint64(flips) {
		t.Fatalf("corruption counter moved by %d for %d rejections", got, flips)
	}
}

// TestTombstonedSlotRejected forges what a pre-removal build could write:
// a well-formed file (every CRC valid) whose PRED section marks a slot
// dead while BDDS still carries its predicate and TREE still routes on
// it. The decoder must say it no longer speaks that, not restore a tree
// stage 2 would misread.
func TestTombstonedSlotRejected(t *testing.T) {
	_, src := testSource(t, 19)
	raw := encodeToBytes(t, src)
	at := bytes.Index(raw, []byte("PRED"))
	if at < 0 {
		t.Fatal("no PRED section")
	}
	n := int(binary.LittleEndian.Uint32(raw[at+4:]))
	payload := raw[at+8 : at+8+n]
	if payload[0]&1 == 0 {
		t.Fatal("fixture changed: predicate 0 is expected live")
	}
	payload[0] &^= 1 // predicate 0: live -> dead, BDD and routing kept
	crc := crc32.Update(crc32.ChecksumIEEE([]byte("PRED")), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(raw[at+8+n:], crc)

	_, err := Decode(bytes.NewReader(raw))
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "tombstone") {
		t.Fatalf("tombstoned slot: %v, want ErrMalformed naming tombstones", err)
	}

	// The other half of the same contract: a port wired to a properly dead
	// slot (stage 2 would read it as "matches nothing") is refused too.
	m, src := testSource(t, 19)
	m.Update(func(tx *aptree.Tx) {
		w := tx.Data().(*network.Wiring).Next()
		w.SetFwd(0, 0, 1) // testSource removed predicate 1
		tx.SetData(w)
	})
	src.Snap = m.Snapshot()
	_, err = Decode(bytes.NewReader(encodeToBytes(t, src)))
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "dead predicate 1") {
		t.Fatalf("port wired to a dead slot: %v, want ErrMalformed", err)
	}
}

// TestTruncationRejected cuts the file at various points; every prefix
// must be rejected, typed.
func TestTruncationRejected(t *testing.T) {
	_, src := testSource(t, 13)
	raw := encodeToBytes(t, src)
	for _, cut := range []int{0, 1, 5, 7, 8, len(raw) / 4, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !IsDecodeError(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	if _, err := Decode(bytes.NewReader(raw[:8])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-only file: %v, want ErrTruncated", err)
	}
}

func TestInspect(t *testing.T) {
	_, src := testSource(t, 17)
	raw := encodeToBytes(t, src)
	info, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != FormatVersion || info.Epoch != src.Snap.Version() {
		t.Fatalf("info header wrong: %+v", info)
	}
	if want := network.WiringOf(src.Snap).Seq; info.DeltaSeq != want {
		t.Fatalf("delta seq %d, want %d", info.DeltaSeq, want)
	}
	if info.NumPreds != src.Snap.Tree().NumPreds() || info.NumLive != src.Snap.NumLive() {
		t.Fatalf("predicate counts wrong: %+v", info)
	}
	if info.NumLeaves != src.Snap.Tree().NumLeaves() {
		t.Fatalf("leaf count wrong: %+v", info)
	}
	if info.DatasetName != src.Dataset.Name {
		t.Fatalf("dataset name %q, want %q", info.DatasetName, src.Dataset.Name)
	}
	if info.SectionBytes["BDDS"] == 0 || info.SectionBytes["TREE"] == 0 {
		t.Fatalf("section sizes missing: %+v", info.SectionBytes)
	}
}
