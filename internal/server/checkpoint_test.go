package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func TestCheckpointEndpointDisabled(t *testing.T) {
	ts, _ := testServer(t)
	var resp map[string]string
	if code := postJSON(t, ts.URL+"/checkpoint", struct{}{}, &resp); code != 503 {
		t.Fatalf("status %d, want 503 when checkpointing is disabled", code)
	}
	if !strings.Contains(resp["error"], "checkpoint-dir") {
		t.Fatalf("error %q does not tell the operator how to enable", resp["error"])
	}
}

// TestCheckpointEndpointAndRunner drives the full server-side loop:
// enable → initial background save → forced save via POST /checkpoint →
// rule update through the HTTP API captured by the coalesced runner →
// graceful-stop final save, restorable into an equivalent classifier.
func TestCheckpointEndpointAndRunner(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 73, RuleScale: 0.01})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	dir, err := checkpoint.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	runner := s.EnableCheckpoints(dir, checkpoint.RunnerConfig{MinGap: 20 * time.Millisecond})
	defer runner.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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

	var forced struct {
		Path      string `json:"path"`
		SizeBytes int64  `json:"sizeBytes"`
		Epoch     uint64 `json:"epoch"`
	}
	if code := postJSON(t, ts.URL+"/checkpoint", struct{}{}, &forced); code != 200 {
		t.Fatalf("forced checkpoint: status %d", code)
	}
	if forced.Path == "" || forced.SizeBytes == 0 {
		t.Fatalf("forced checkpoint response incomplete: %+v", forced)
	}
	if forced.Epoch != c.Manager.Version() {
		t.Fatalf("forced checkpoint epoch %d, classifier at %d", forced.Epoch, c.Manager.Version())
	}

	// A rule update through the API publishes a new epoch; the runner
	// must persist it without further prompting.
	var add RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch",
		[]RuleDeltaRequest{{Op: opAddFwd, Box: ds.Boxes[0].Name, Prefix: "240.11.0.0/16", Port: 0}}, &add); code != 200 {
		t.Fatalf("rule add: status %d (%+v)", code, add)
	}
	wantEpoch := c.Manager.Version()
	waitFor(func() bool {
		res, err := dir.Restore()
		return err == nil && res.Epoch >= wantEpoch
	}, "runner to capture the rule update")

	// Graceful stop leaves a checkpoint that warm-restarts into a peer.
	runner.Stop()
	rc, err := apclassifier.RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumPredicates() != c.NumPredicates() || rc.Manager.Version() != c.Manager.Version() {
		t.Fatalf("restored %d preds @ epoch %d, live %d @ %d",
			rc.NumPredicates(), rc.Manager.Version(), c.NumPredicates(), c.Manager.Version())
	}
}

// churnLog is a pregenerated /rules/batch firehose plus the probe
// headers that straddle every prefix it touches. It is drawn from a
// pristine dataset before any server mutates it, and every prefix of the
// log is valid on its own (removes only target children an earlier batch
// installed), so a replica can stop at any cursor.
type churnLog struct {
	batches [][]RuleDeltaRequest
	probes  []rule.Fields
}

func genChurnLog(ds *netgen.Dataset, rng *rand.Rand, n int) churnLog {
	var log churnLog
	boundary := func(p rule.Prefix) {
		last := p.Value | ^uint32(0)>>uint(p.Length)
		for _, dst := range []uint32{p.Value, last, p.Value - 1, last + 1} {
			f := ds.RandomFields(rng)
			f.Dst = dst
			log.probes = append(log.probes, f)
		}
	}
	type child struct{ box, prefix string }
	var installed []child
	for len(log.batches) < n {
		var batch []RuleDeltaRequest
		for k := 1 + rng.Intn(3); k > 0; k-- {
			spec := &ds.Boxes[rng.Intn(len(ds.Boxes))]
			switch op := rng.Intn(8); {
			case op < 2 && len(installed) > 4:
				i := rng.Intn(len(installed))
				batch = append(batch, RuleDeltaRequest{Op: "remove-fwd", Box: installed[i].box, Prefix: installed[i].prefix})
				installed = append(installed[:i], installed[i+1:]...)
			case op == 2 || op == 3:
				// Replace or clear an ACL: the port-ACL map and the
				// ingress-ACL pointer are the other two tables a
				// checkpoint copies.
				rq := RuleDeltaRequest{Op: "set-in-acl", Box: spec.Name}
				if op == 3 {
					rq = RuleDeltaRequest{Op: "set-port-acl", Box: spec.Name, Port: rng.Intn(spec.NumPorts)}
				}
				if rng.Intn(3) != 0 {
					p := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))].Prefix
					boundary(p)
					rq.ACL = &ACLSpec{Default: "permit", Rules: []ACLRuleSpec{{Dst: p.String(), Action: "deny"}}}
				}
				batch = append(batch, rq)
			default:
				parent := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
				for parent.Prefix.Length >= 32 {
					parent = spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
				}
				length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
				p := rule.P(parent.Prefix.Value|rng.Uint32()>>uint(parent.Prefix.Length), length)
				boundary(p)
				batch = append(batch, RuleDeltaRequest{Op: "add-fwd", Box: spec.Name, Prefix: p.String(), Port: rng.Intn(spec.NumPorts+1) - 1})
				installed = append(installed, child{spec.Name, p.String()})
			}
		}
		log.batches = append(log.batches, batch)
	}
	for i := 0; i < 128; i++ {
		log.probes = append(log.probes, ds.RandomFields(rng))
	}
	return log
}

// TestCheckpointUnderChurnRestoresCursorPrefix: a checkpoint taken while
// the firehose is writing must hold the state of exactly one cursor
// position — the DeltaSeq it records — never a rule table torn between
// two. The server runs with the background checkpointer on a 1 ms
// coalescing window and POST /checkpoint forced in a loop while
// /rules/batch?seq=n streams in; afterwards every checkpoint in the
// directory must restore, and the restored classifier must equal a
// replica that applied batches 1..DeltaSeq and nothing else: same rule
// tables byte for byte, same behaviour on boundary and random headers.
// Under -race this is also what catches the encoder reading a table the
// write path is appending to.
func TestCheckpointUnderChurnRestoresCursorPrefix(t *testing.T) {
	build := func() *apclassifier.Classifier {
		c, err := apclassifier.New(netgen.StanfordLike(netgen.Config{Seed: 79, RuleScale: 0.005}), apclassifier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	log := genChurnLog(c.Dataset, rand.New(rand.NewSource(83)), 48)

	dir, err := checkpoint.Open(t.TempDir(), 1<<16) // keep every checkpoint
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	runner := s.EnableCheckpoints(dir, checkpoint.RunnerConfig{MinGap: time.Millisecond})
	ts := httptest.NewServer(s.Handler())

	firehose := make(chan error, 1)
	go func() {
		for i, batch := range log.batches {
			body, _ := json.Marshal(batch)
			resp, err := http.Post(fmt.Sprintf("%s/rules/batch?seq=%d", ts.URL, i+1), "application/json", bytes.NewReader(body))
			if err != nil {
				firehose <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				firehose <- fmt.Errorf("batch seq %d: status %d", i+1, resp.StatusCode)
				return
			}
		}
		firehose <- nil
	}()
	for streaming := true; streaming; {
		select {
		case err := <-firehose:
			if err != nil {
				t.Fatal(err)
			}
			streaming = false
		default:
			if code := postJSON(t, ts.URL+"/checkpoint", nil, nil); code != 200 {
				t.Fatalf("forced checkpoint: status %d", code)
			}
		}
	}
	ts.Close()
	runner.Stop()

	type restored struct {
		path string
		c    *apclassifier.Classifier
	}
	var ckpts []restored
	for _, path := range dir.Checkpoints() {
		rc, err := apclassifier.RestoreFile(path)
		if err != nil {
			t.Fatalf("%s does not restore: %v", path, err)
		}
		ckpts = append(ckpts, restored{path, rc})
	}
	sort.SliceStable(ckpts, func(i, j int) bool { return ckpts[i].c.DeltaSeq() < ckpts[j].c.DeltaSeq() })
	if last := ckpts[len(ckpts)-1].c.DeltaSeq(); last != uint64(len(log.batches)) {
		t.Fatalf("final checkpoint is at cursor %d, firehose ended at %d", last, len(log.batches))
	}

	tables := func(c *apclassifier.Classifier) string {
		var b bytes.Buffer
		if err := c.Dataset.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	replica := build()
	rts := httptest.NewServer(New(replica).Handler())
	defer rts.Close()
	cursors := map[uint64]bool{}
	for _, ck := range ckpts {
		seq := ck.c.DeltaSeq()
		cursors[seq] = true
		for next := replica.DeltaSeq() + 1; next <= seq; next++ {
			var resp RulesBatchResponse
			if code := postJSON(t, fmt.Sprintf("%s/rules/batch?seq=%d", rts.URL, next), log.batches[next-1], &resp); code != 200 || !resp.Applied {
				t.Fatalf("replica batch seq %d: status %d, %+v", next, code, resp)
			}
		}
		if got, want := tables(ck.c), tables(replica); got != want {
			t.Fatalf("%s (cursor %d): rule tables differ from a replica that applied batches 1..%d", ck.path, seq, seq)
		}
		for i, f := range log.probes {
			ingress := i % len(replica.Dataset.Boxes)
			pkt := replica.Dataset.PacketFromFields(f)
			if got, want := ck.c.Behavior(ingress, pkt).String(), replica.Behavior(ingress, pkt).String(); got != want {
				t.Fatalf("%s (cursor %d): ingress %d, %+v: restored %q, replica %q", ck.path, seq, ingress, f, got, want)
			}
		}
	}
	// The point of the test is checkpoints taken mid-stream, not one at
	// each end.
	if len(cursors) < 4 {
		t.Fatalf("only %d distinct cursors across %d checkpoints: the forced saves did not interleave with the firehose", len(cursors), len(ckpts))
	}
}
