package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// TestRulesBatchLifecycle drives one header's fate through the firehose:
// route a fresh /32, fence it off with a deny-all egress ACL, lift the
// ACL, and withdraw the route — each step one batch, each observable
// through /query.
func TestRulesBatchLifecycle(t *testing.T) {
	ts, ds := testServer(t)
	box := ds.Boxes[0].Name
	q := QueryRequest{Ingress: box, Dst: "240.1.2.3"}

	var before QueryResponse
	postJSON(t, ts.URL+"/query", q, &before)
	if len(before.Delivered) != 0 {
		t.Fatal("240/8 must start unrouted")
	}

	// One batch installs the route and a permissive port ACL together.
	var resp RulesBatchResponse
	batch := []RuleDeltaRequest{
		{Op: "add-fwd", Box: box, Prefix: "240.1.2.3/32", Port: 0},
		{Op: "set-port-acl", Box: box, Port: 0, ACL: &ACLSpec{Default: "permit"}},
	}
	if code := postJSON(t, ts.URL+"/rules/batch", batch, &resp); code != 200 {
		t.Fatalf("install batch: status %d", code)
	}
	if !resp.Applied || resp.Count != 2 {
		t.Fatalf("install batch: %+v", resp)
	}
	var routed QueryResponse
	postJSON(t, ts.URL+"/query", q, &routed)
	if len(routed.Delivered) == 0 && len(routed.Drops) == len(before.Drops) && routed.Atom == before.Atom {
		t.Fatalf("batch had no observable effect: %+v vs %+v", before, routed)
	}

	// A deny-all egress ACL on the same port blackholes the route again.
	fence := []RuleDeltaRequest{{Op: "set-port-acl", Box: box, Port: 0, ACL: &ACLSpec{Default: "deny"}}}
	if code := postJSON(t, ts.URL+"/rules/batch", fence, &resp); code != 200 || !resp.Applied {
		t.Fatalf("fence batch: status %d, %+v", code, resp)
	}
	var fenced QueryResponse
	postJSON(t, ts.URL+"/query", q, &fenced)
	if len(fenced.Delivered) != 0 {
		t.Fatalf("deny-all ACL did not fence the route: %+v", fenced)
	}

	// Lifting the ACL (null acl) and withdrawing the route restores the
	// original behavior.
	restore := []RuleDeltaRequest{
		{Op: "set-port-acl", Box: box, Port: 0},
		{Op: "remove-fwd", Box: box, Prefix: "240.1.2.3/32"},
	}
	if code := postJSON(t, ts.URL+"/rules/batch", restore, &resp); code != 200 || !resp.Applied {
		t.Fatalf("restore batch: status %d, %+v", code, resp)
	}
	// Atom IDs are epoch-local (split-then-merge renumbers the leaf), so
	// the restored state is compared by behavior, not by atom.
	var after QueryResponse
	postJSON(t, ts.URL+"/query", q, &after)
	if len(after.Delivered) != 0 || !equalStrings(after.Drops, before.Drops) {
		t.Fatalf("restore did not return to the original behavior: %+v vs %+v", before, after)
	}
}

// TestRulesBatchSeqIdempotent checks the ?seq= redelivery contract: a
// replayed sequence number acknowledges without applying, a fresh one
// applies, and unsequenced batches always apply.
func TestRulesBatchSeqIdempotent(t *testing.T) {
	ts, ds := testServer(t)
	box := ds.Boxes[0].Name
	batch := []RuleDeltaRequest{{Op: "add-fwd", Box: box, Prefix: "240.9.9.9/32", Port: 0}}

	var resp RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch?seq=7", batch, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Applied || resp.Seq != 7 {
		t.Fatalf("first delivery: %+v", resp)
	}
	version := resp.TreeVersion

	// Redelivery of seq 7 — and anything below it — is acknowledged
	// without touching the tree.
	for _, seq := range []string{"7", "3"} {
		if code := postJSON(t, ts.URL+"/rules/batch?seq="+seq, batch, &resp); code != 200 {
			t.Fatalf("seq %s: status %d", seq, code)
		}
		if resp.Applied || resp.Seq != 7 || resp.TreeVersion != version {
			t.Fatalf("seq %s replay applied: %+v", seq, resp)
		}
	}

	// The next sequence number applies; an unsequenced batch always does.
	if code := postJSON(t, ts.URL+"/rules/batch?seq=8", []RuleDeltaRequest{
		{Op: "remove-fwd", Box: box, Prefix: "240.9.9.9/32"},
	}, &resp); code != 200 || !resp.Applied || resp.Seq != 8 {
		t.Fatalf("seq 8: status %d, %+v", code, resp)
	}
	if code := postJSON(t, ts.URL+"/rules/batch", batch, &resp); code != 200 || !resp.Applied || resp.Seq != 8 {
		t.Fatalf("unsequenced: status %d, %+v", code, resp)
	}
}

func TestRulesBatchValidation(t *testing.T) {
	ts, ds := testServer(t)
	box := ds.Boxes[0].Name

	var empty RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch", []RuleDeltaRequest{}, &empty); code != 200 {
		t.Fatalf("empty batch: status %d", code)
	}

	resp, err := http.Post(ts.URL+"/rules/batch", "application/json", bytes.NewReader([]byte("{not-an-array")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage JSON: status %d", resp.StatusCode)
	}

	// A bad element fails the whole batch, reported with its index and the
	// right status: unknown boxes are 404, malformed elements 400.
	var errResp map[string]string
	cases := []struct {
		name  string
		batch []RuleDeltaRequest
		want  int
	}{
		{"unknown box", []RuleDeltaRequest{
			{Op: "add-fwd", Box: box, Prefix: "10.0.0.0/8", Port: 0},
			{Op: "add-fwd", Box: "nosuch", Prefix: "10.0.0.0/8", Port: 0},
		}, 404},
		{"unknown op", []RuleDeltaRequest{{Op: "frobnicate", Box: box}}, 400},
		{"bad prefix", []RuleDeltaRequest{{Op: "add-fwd", Box: box, Prefix: "10.0.0.0", Port: 0}}, 400},
		{"bad port", []RuleDeltaRequest{{Op: "add-fwd", Box: box, Prefix: "10.0.0.0/8", Port: 1000}}, 400},
		{"bad acl action", []RuleDeltaRequest{{Op: "set-in-acl", Box: box,
			ACL: &ACLSpec{Rules: []ACLRuleSpec{{Action: "reject"}}}}}, 400},
		{"inverted port range", []RuleDeltaRequest{{Op: "set-in-acl", Box: box,
			ACL: &ACLSpec{Rules: []ACLRuleSpec{{Action: "deny", DstPort: &[2]uint16{9, 3}}}}}}, 400},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+"/rules/batch", tc.batch, &errResp); code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, errResp)
		}
	}
	if !strings.Contains(errResp["error"], "delta 0") {
		t.Fatalf("error does not locate the bad element: %q", errResp["error"])
	}
	// Nothing above may have mutated the table: the rejected batches were
	// validated before application.
	var probe QueryResponse
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Ingress: box, Dst: "10.0.0.1"}, &probe); code != 200 {
		t.Fatalf("probe after rejected batches: status %d", code)
	}

	// Bad or zero seq values are rejected before the lock is taken.
	for _, seq := range []string{"abc", "-1", "0", "1.5"} {
		if code := postJSON(t, ts.URL+"/rules/batch?seq="+seq, []RuleDeltaRequest{}, &errResp); code != 400 {
			t.Errorf("seq=%q: status %d, want 400", seq, code)
		}
	}

	// Oversized batches are refused before any work happens.
	huge := make([]RuleDeltaRequest, maxBatch+1)
	for i := range huge {
		huge[i] = RuleDeltaRequest{Op: "remove-fwd", Box: box, Prefix: "10.0.0.0/8"}
	}
	if code := postJSON(t, ts.URL+"/rules/batch", huge, &errResp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", code)
	}

	req, err := http.NewRequest("GET", ts.URL+"/rules/batch", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rules/batch: status %d, want 405", r2.StatusCode)
	}
}

// TestRulesBatchAgainstSingleEndpoints holds a firehose-updated server to
// the answers of a twin mutated one delta per /rules/batch request, over
// a randomized churn of adds and removes.
func TestRulesBatchAgainstSingleEndpoints(t *testing.T) {
	tsA, ds := testServer(t)
	tsB, _ := testServer(t) // same Seed → identical dataset
	rng := rand.New(rand.NewSource(73))

	var installed []string
	for step := 0; step < 6; step++ {
		var batch []RuleDeltaRequest
		for k := 0; k < 1+rng.Intn(4); k++ {
			box := ds.Boxes[rng.Intn(len(ds.Boxes))].Name
			if len(installed) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(installed))
				parts := strings.SplitN(installed[i], "|", 2)
				batch = append(batch, RuleDeltaRequest{Op: "remove-fwd", Box: parts[0], Prefix: parts[1]})
				one := []RuleDeltaRequest{batch[len(batch)-1]}
				if code := postJSON(t, tsB.URL+"/rules/batch", one, &RulesBatchResponse{}); code != 200 {
					t.Fatalf("twin remove: status %d", code)
				}
				installed = append(installed[:i], installed[i+1:]...)
				continue
			}
			prefix := randomProbePrefix(rng)
			batch = append(batch, RuleDeltaRequest{Op: "add-fwd", Box: box, Prefix: prefix, Port: 0})
			one := []RuleDeltaRequest{batch[len(batch)-1]}
			if code := postJSON(t, tsB.URL+"/rules/batch", one, &RulesBatchResponse{}); code != 200 {
				t.Fatalf("twin add: status %d", code)
			}
			installed = append(installed, box+"|"+prefix)
		}
		var resp RulesBatchResponse
		if code := postJSON(t, tsA.URL+"/rules/batch", batch, &resp); code != 200 || !resp.Applied {
			t.Fatalf("step %d: batch status %d, %+v", step, code, resp)
		}
		// The two servers must answer every probe identically.
		for i := 0; i < 20; i++ {
			q := QueryRequest{
				Ingress: ds.Boxes[rng.Intn(len(ds.Boxes))].Name,
				Dst:     randomProbeIP(rng),
			}
			var a, b QueryResponse
			postJSON(t, tsA.URL+"/query", q, &a)
			postJSON(t, tsB.URL+"/query", q, &b)
			// Atom IDs are lineage-local; behaviors must agree.
			if !equalStrings(a.Delivered, b.Delivered) || !equalStrings(a.Drops, b.Drops) {
				t.Fatalf("step %d: firehose %+v, one-delta batches %+v for %+v", step, a, b, q)
			}
		}
	}
}

func randomProbePrefix(rng *rand.Rand) string {
	return randomProbeIP(rng) + "/" + []string{"16", "24", "32"}[rng.Intn(3)]
}

func randomProbeIP(rng *rand.Rand) string {
	// Stay in 240/8 half the time so churned rules hit the probes often.
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("240.%d.%d.%d", rng.Intn(4), rng.Intn(4), rng.Intn(4))
	}
	return fmt.Sprintf("%d.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRulesBatchMetrics checks the delta engine's counters reach the
// Prometheus exposition: structural work, apply latency and the bounded
// per-op vector.
func TestRulesBatchMetrics(t *testing.T) {
	ts, ds := testServer(t)
	box := ds.Boxes[0].Name
	batch := []RuleDeltaRequest{
		{Op: "add-fwd", Box: box, Prefix: "240.4.4.0/24", Port: 0},
		{Op: "remove-fwd", Box: box, Prefix: "240.4.4.0/24"},
		{Op: "set-in-acl", Box: box, ACL: &ACLSpec{Default: "permit"}},
		{Op: "set-in-acl", Box: box},
	}
	var resp RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch", batch, &resp); code != 200 || !resp.Applied {
		t.Fatalf("batch status %d, %+v", code, resp)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE apc_delta_touched_leaves_total counter",
		"apc_delta_touched_leaves_total",
		"apc_delta_splits_total",
		"apc_delta_merges_total",
		"apc_delta_apply_duration_seconds_count",
		`apc_delta_ops_total{op="add-fwd"}`,
		`apc_delta_ops_total{op="remove-fwd"}`,
		`apc_delta_ops_total{op="set-in-acl"}`,
		`apc_delta_ops_total{op="set-port-acl"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
