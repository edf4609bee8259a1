package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestPostBodyLimits: every POST endpoint bounds its request body with
// http.MaxBytesReader and refuses overflow with 413 before doing any
// work. The oversized body is limit bytes of whitespace followed by
// valid JSON, so the decoder must read past the limit to find the first
// token — the failure is the byte bound, never a parse error.
func TestPostBodyLimits(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		path  string
		limit int64
	}{
		{"/query", maxSingleBody},
		{"/query/batch", maxBatchBody},
		{"/rules/batch", maxBatchBody},
		{"/reconstruct", maxSingleBody},
		{"/checkpoint", maxSingleBody},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			body := append(bytes.Repeat([]byte{' '}, int(tc.limit)), []byte("{}")...)
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s with %d-byte body: status %d, want 413", tc.path, len(body), resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("413 body is not the JSON error shape: %v", err)
			}
			if !strings.Contains(e.Error, "exceeds") {
				t.Fatalf("413 error %q does not name the bound", e.Error)
			}
		})
	}
}

// TestPostBodyUnderLimit: a body just under the bound is not rejected
// on size — the same whitespace-padded payload one byte shorter reaches
// the JSON decoder (and from there the handler's own validation).
func TestPostBodyUnderLimit(t *testing.T) {
	ts, _ := testServer(t)
	body := append(bytes.Repeat([]byte{' '}, maxSingleBody-3), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/reconstruct", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /reconstruct with in-bound body: status %d, want 200", resp.StatusCode)
	}
}

// TestBatchCountLimit: element-count bounds are enforced on top of the
// byte bounds — 257 cheap elements fit in 8MB but still draw 413.
func TestBatchCountLimit(t *testing.T) {
	ts, _ := testServer(t)
	tiny := make([]map[string]string, maxBatch+1)
	for i := range tiny {
		tiny[i] = map[string]string{}
	}
	body, _ := json.Marshal(tiny)
	for _, path := range []string{"/query/batch", "/rules/batch"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d elements: status %d, want 413", path, len(tiny), resp.StatusCode)
		}
	}
}
