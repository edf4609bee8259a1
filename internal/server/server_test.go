package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

func testServer(t *testing.T) (*httptest.Server, *netgen.Dataset) {
	t.Helper()
	ds := netgen.Internet2Like(netgen.Config{Seed: 71, RuleScale: 0.01})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(c).Handler())
	t.Cleanup(ts.Close)
	return ts, ds
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts, ds := testServer(t)
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats.Rules != ds.NumRules() || stats.Predicates == 0 || stats.Atoms == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.LiveMemMB <= 0 {
		t.Fatal("live memory must be positive")
	}
}

func TestQueryEndpointAgreesWithOracle(t *testing.T) {
	ts, ds := testServer(t)
	rng := rand.New(rand.NewSource(71))
	delivered := 0
	for i := 0; i < 60; i++ {
		f := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		var resp QueryResponse
		code := postJSON(t, ts.URL+"/query", QueryRequest{
			Ingress: ds.Boxes[ing].Name,
			Dst:     fmt.Sprintf("%d.%d.%d.%d", byte(f.Dst>>24), byte(f.Dst>>16), byte(f.Dst>>8), byte(f.Dst)),
		}, &resp)
		if code != 200 {
			t.Fatalf("query status %d", code)
		}
		want := ds.Simulate(ing, rule.Fields{Dst: f.Dst})
		if len(want.Delivered) != len(resp.Delivered) {
			t.Fatalf("query %d: delivered %v, oracle %v", i, resp.Delivered, want.Delivered)
		}
		if len(resp.Delivered) > 0 {
			delivered++
			if resp.Delivered[0] != want.Delivered[0] {
				t.Fatalf("query %d: wrong host", i)
			}
			if len(resp.Path) == 0 {
				t.Fatal("delivered query must include a path")
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered queries exercised")
	}
}

func TestQueryValidation(t *testing.T) {
	ts, _ := testServer(t)
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Ingress: "nosuch", Dst: "10.0.0.1"}, &map[string]string{}); code != 400 {
		t.Fatalf("unknown box: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Ingress: "seattle", Dst: "not-an-ip"}, &map[string]string{}); code != 400 {
		t.Fatalf("bad dst: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage JSON: status %d", resp.StatusCode)
	}
}

func TestRuleLifecycleOverHTTP(t *testing.T) {
	ts, ds := testServer(t)
	// Install a drop for a fresh /32 and see the query flip.
	target := "240.1.2.3"
	q := QueryRequest{Ingress: ds.Boxes[0].Name, Dst: target}
	var before QueryResponse
	postJSON(t, ts.URL+"/query", q, &before)
	if len(before.Delivered) != 0 {
		t.Fatal("240/8 must start unrouted")
	}

	// Route it to port 0 of box 0 (an edge port on internet2 boxes? port 0
	// is a link port; either way the rule installs and the behavior
	// changes deterministically).
	rules := ds.NumRules()
	add := []RuleDeltaRequest{{Op: opAddFwd, Box: ds.Boxes[0].Name, Prefix: "240.1.2.3/32", Port: 0}}
	var addResp RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch", add, &addResp); code != 200 || !addResp.Applied {
		t.Fatalf("add: status %d, %+v", code, addResp)
	}
	var after QueryResponse
	postJSON(t, ts.URL+"/query", q, &after)
	if len(after.Delivered) == 0 && len(after.Drops) == len(before.Drops) && after.Atom == before.Atom {
		t.Fatalf("rule add had no observable effect: %+v vs %+v", before, after)
	}

	// Removing the rule restores the original behavior; removing it again
	// is a no-op batch that still answers 200.
	remove := []RuleDeltaRequest{{Op: opRemoveFwd, Box: ds.Boxes[0].Name, Prefix: "240.1.2.3/32"}}
	for i := 0; i < 2; i++ {
		var rmResp RulesBatchResponse
		if code := postJSON(t, ts.URL+"/rules/batch", remove, &rmResp); code != 200 || !rmResp.Applied {
			t.Fatalf("remove %d: status %d, %+v", i, code, rmResp)
		}
		if ds.NumRules() != rules {
			t.Fatalf("remove %d: %d rules, want %d", i, ds.NumRules(), rules)
		}
		var back QueryResponse
		postJSON(t, ts.URL+"/query", q, &back)
		if !equalStrings(back.Delivered, before.Delivered) || !equalStrings(back.Drops, before.Drops) {
			t.Fatalf("remove %d: behavior %+v, want the original %+v", i, back, before)
		}
	}
}

func TestReconstructEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var resp map[string]interface{}
	if code := postJSON(t, ts.URL+"/reconstruct", map[string]bool{"weighted": false}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp["treeVersion"].(float64) < 1 {
		t.Fatalf("version did not bump: %v", resp)
	}
}

func TestVerifyEndpoints(t *testing.T) {
	ts, ds := testServer(t)
	var loops map[string]interface{}
	if code := getJSON(t, ts.URL+"/verify/loops", &loops); code != 200 {
		t.Fatalf("status %d", code)
	}
	if loops["loopFree"] != true {
		t.Fatalf("generated network must be loop-free: %v", loops)
	}
	var reach map[string]interface{}
	url := fmt.Sprintf("%s/verify/reach?from=%s&host=%s", ts.URL, ds.Boxes[0].Name, ds.Hosts[0].Name)
	if code := getJSON(t, url, &reach); code != 200 {
		t.Fatalf("status %d", code)
	}
	if reach["packets"] == "" {
		t.Fatal("reach summary empty")
	}
	if code := getJSON(t, ts.URL+"/verify/reach?from=nosuch&host=x", &reach); code != 400 {
		t.Fatalf("unknown box: status %d", code)
	}
}

// TestVerifyBadInput pins the /verify/* contract for input the analyzer
// cannot answer: a name the pinned topology does not know is the caller's
// error, not an empty packet set, and a middlebox network is refused with
// a message instead of reaching verify.New's panic.
func TestVerifyBadInput(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 71, RuleScale: 0.01})
	box, host := ds.Boxes[0].Name, ds.Hosts[0].Name
	for _, tc := range []struct {
		name      string
		middlebox bool
		path      string
		status    int
		errHas    string
	}{
		{"reach", false, "/verify/reach?from=" + box + "&host=" + host, 200, ""},
		{"reach any host", false, "/verify/reach?from=" + box, 200, ""},
		{"reach unknown host", false, "/verify/reach?from=" + box + "&host=nosuch", 400, "unknown host"},
		{"blackholes unknown box", false, "/verify/blackholes?from=nosuch", 400, "unknown box"},
		{"loops on a middlebox network", true, "/verify/loops", 422, "middlebox"},
		{"reach on a middlebox network", true, "/verify/reach?from=" + box + "&host=" + host, 422, "middlebox"},
		{"blackholes on a middlebox network", true, "/verify/blackholes?from=" + box, 422, "middlebox"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := apclassifier.New(ds, apclassifier.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.middlebox {
				mb := apclassifier.RuleDelta{Op: apclassifier.OpSetMiddlebox, Box: 1, MB: &network.Middlebox{Name: "nat"}}
				if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{mb}); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(New(c).Handler())
			defer ts.Close()
			var body map[string]interface{}
			if code := getJSON(t, ts.URL+tc.path, &body); code != tc.status {
				t.Fatalf("status %d, want %d (%v)", code, tc.status, body)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, tc.errHas) {
				t.Fatalf("error %q does not mention %q", msg, tc.errHas)
			}
		})
	}
}

// TestQueryAnswersForwardingLoop installs a two-box forwarding loop
// through /rules/batch and checks /query and /query/batch answer it in
// bounded time and memory: 200, the loop drop, and a finite path that ends
// at the box the walk revisited.
func TestQueryAnswersForwardingLoop(t *testing.T) {
	ts, ds := testServer(t)
	l := ds.Links[0]
	a, b := ds.Boxes[l.A].Name, ds.Boxes[l.B].Name
	loop := []RuleDeltaRequest{
		{Op: opAddFwd, Box: a, Prefix: "240.9.0.0/16", Port: l.PA},
		{Op: opAddFwd, Box: b, Prefix: "240.9.0.0/16", Port: l.PB},
	}
	var ack RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch", loop, &ack); code != 200 || !ack.Applied {
		t.Fatalf("installing the loop: status %d, %+v", code, ack)
	}
	check := func(label string, resp QueryResponse) {
		t.Helper()
		want := fmt.Sprintf("%s: %s", a, network.DropLoop)
		if len(resp.Drops) != 1 || resp.Drops[0] != want {
			t.Fatalf("%s: drops %v, want [%q]", label, resp.Drops, want)
		}
		if got := fmt.Sprint(resp.Path); got != fmt.Sprint([]string{a, b, a}) {
			t.Fatalf("%s: path %v, want [%s %s %s]", label, resp.Path, a, b, a)
		}
	}
	q := QueryRequest{Ingress: a, Dst: "240.9.1.1"}
	var one QueryResponse
	if code := postJSON(t, ts.URL+"/query", q, &one); code != 200 {
		t.Fatalf("/query status %d", code)
	}
	check("/query", one)
	var many []QueryResponse
	if code := postJSON(t, ts.URL+"/query/batch", []QueryRequest{q, q}, &many); code != 200 || len(many) != 2 {
		t.Fatalf("/query/batch status %d, %d answers", code, len(many))
	}
	check("/query/batch", many[1])
}
