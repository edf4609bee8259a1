package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// doQuery fires one valid /query so the latency histograms and the trace
// ring have something to show.
func doQuery(t *testing.T, url, box string) {
	t.Helper()
	var resp QueryResponse
	if code := postJSON(t, url+"/query", QueryRequest{Ingress: box, Dst: "10.1.2.3"}, &resp); code != 200 {
		t.Fatalf("query status %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, ds := testServer(t)
	for i := 0; i < 3; i++ {
		doQuery(t, ts.URL, ds.Boxes[0].Name)
	}
	// One batch so the batch histograms and cache counters have samples.
	var batchResp []QueryResponse
	batch := []QueryRequest{
		{Ingress: ds.Boxes[0].Name, Dst: "10.1.2.3"},
		{Ingress: ds.Boxes[0].Name, Dst: "10.1.2.3"},
	}
	if code := postJSON(t, ts.URL+"/query/batch", batch, &batchResp); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// Live counters from every instrumented layer must be present: the
	// ISSUE's acceptance bar is that /metrics reflects bdd, aptree and
	// network state, not a static page.
	for _, want := range []string{
		"# TYPE apc_server_query_duration_seconds histogram",
		"apc_server_query_duration_seconds_count",
		"apc_aptree_classify_duration_seconds_count",
		"apc_network_walk_duration_seconds_count",
		"# TYPE apc_batch_size histogram",
		"apc_batch_size_count",
		"apc_server_batch_duration_seconds_count",
		"apc_aptree_batch_classify_duration_seconds_count",
		"apc_network_batch_walk_duration_seconds_count",
		"apc_behavior_cache_hits_total",
		"apc_behavior_cache_misses_total",
		"apc_aptree_classify_total",
		"apc_aptree_atoms",
		"apc_aptree_predicates_live",
		"apc_aptree_version",
		"apc_bdd_live_nodes",
		"apc_bdd_nodes_allocated_total",
		"apc_network_walks_total",
		"apc_network_hops_total",
		"apc_verify_rows_built_total",
		"apc_verify_row_walks_total",
		"apc_verify_row_build_seconds_count",
		"apc_checkpoint_saves_total",
		"apc_checkpoint_save_duration_seconds",
		"apc_checkpoint_age_seconds",
		"apc_checkpoint_corrupt_rejected_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The three queries above each pinned, classified and walked once.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "apc_server_query_duration_seconds_count") {
			found = true
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < 3 {
				t.Fatalf("query histogram count %v after 3 queries", v)
			}
		}
	}
	if !found {
		t.Fatal("no apc_server_query_duration_seconds_count sample line")
	}
}

type traceResponse struct {
	Count  int                      `json:"count"`
	Traces []map[string]interface{} `json:"traces"`
}

func TestTraceEndpoint(t *testing.T) {
	ts, ds := testServer(t)

	var empty traceResponse
	if code := getJSON(t, ts.URL+"/debug/trace", &empty); code != 200 {
		t.Fatalf("status %d", code)
	}
	if empty.Count != 0 || len(empty.Traces) != 0 {
		t.Fatalf("fresh server has traces: %+v", empty)
	}

	const queries = 5
	for i := 0; i < queries; i++ {
		doQuery(t, ts.URL, ds.Boxes[0].Name)
	}

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"default n", "/debug/trace", queries},
		{"n smaller than ring", "/debug/trace?n=2", 2},
		{"n larger than recorded", "/debug/trace?n=999", queries},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp traceResponse
			if code := getJSON(t, ts.URL+tc.url, &resp); code != 200 {
				t.Fatalf("status %d", code)
			}
			if resp.Count != tc.want || len(resp.Traces) != tc.want {
				t.Fatalf("count = %d, traces = %d, want %d", resp.Count, len(resp.Traces), tc.want)
			}
			// Newest first: sequence numbers strictly decreasing.
			for i := 1; i < len(resp.Traces); i++ {
				if resp.Traces[i]["seq"].(float64) >= resp.Traces[i-1]["seq"].(float64) {
					t.Fatalf("traces not newest-first: %v then %v",
						resp.Traces[i-1]["seq"], resp.Traces[i]["seq"])
				}
			}
			for _, tr := range resp.Traces {
				if tr["classify_ns"].(float64) < 0 || tr["depth"].(float64) < 0 {
					t.Fatalf("nonsense trace %v", tr)
				}
			}
		})
	}
}

func TestTraceEndpointBadN(t *testing.T) {
	ts, _ := testServer(t)
	// Empty n falls back to the default rather than erroring.
	var ok traceResponse
	if code := getJSON(t, ts.URL+"/debug/trace?n=", &ok); code != 200 {
		t.Fatalf("empty n: status %d", code)
	}
	for _, n := range []string{"abc", "0", "-3", "1.5"} {
		url := ts.URL + "/debug/trace?n=" + n
		var resp map[string]string
		if code := getJSON(t, url, &resp); code != 400 {
			t.Fatalf("n=%q: status %d, want 400", n, code)
		}
		if !strings.Contains(resp["error"], "bad n") {
			t.Fatalf("n=%q: error %q", n, resp["error"])
		}
	}
}

func TestObservabilityMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		method, path string
	}{
		{"POST", "/metrics"},
		{"DELETE", "/metrics"},
		{"POST", "/debug/trace"},
		{"GET", "/query"},
		{"PUT", "/stats"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestPprofIndex checks the pprof mux is mounted (the handlers themselves
// are stdlib).
func TestPprofIndex(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
