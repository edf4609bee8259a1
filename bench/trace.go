package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call across a layer boundary, recorded by the benchmark
// around the call. Spans of one request share Request; Parent is the span
// that caused this one (0 for a root). Times are ns since the tracer began.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	// Items is how many headers (pairs, ops) the call covered.
	Items int `json:"items,omitempty"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 20

// fileRequests is how many requests per kind of root span the trace file
// lists, with all their spans; the per-name summary beside them covers
// every span kept.
const fileRequests = 32

type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) add(id, parent, request int64, name string, start, end time.Time, items int) {
	s := span{id, parent, request, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), items}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed records fn as a child span of parent.
func (t *tracer) timed(name string, parent, request int64, items int, fn func()) {
	id, start := t.newID(), time.Now()
	fn()
	t.add(id, parent, request, name, start, time.Now(), items)
}

// stage replays one layer boundary: it calls fn(0) … fn(n-1) and records
// each call as a root span of its own request. A replay runs one stage
// over all its inputs before the next stage starts, so that no stage finds
// the caches warmed by another stage's work on the same input.
func (t *tracer) stage(name string, n, items int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		id, start := t.newID(), time.Now()
		err := fn(i)
		t.add(id, 0, id, name, start, time.Now(), items)
		if err != nil {
			return fmt.Errorf("replay %s %d: %w", name, i, err)
		}
	}
	return nil
}

func link(parent, request int64) string {
	return strconv.FormatInt(parent, 10) + "/" + strconv.FormatInt(request, 10)
}

func parseLink(s string) (parent, request int64, ok bool) {
	p, r, found := strings.Cut(s, "/")
	if !found {
		return 0, 0, false
	}
	parent, err1 := strconv.ParseInt(p, 10, 64)
	request, err2 := strconv.ParseInt(r, 10, 64)
	return parent, request, err1 == nil && err2 == nil
}

type linkKey struct{}

// wrap records a span around every request that carries a span link, and
// leaves the link in the request context so that spanTransport can pass
// it on. name is called per request: one handler serves several endpoints.
func (t *tracer) wrap(name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, request, ok := parseLink(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.newID(), time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), linkKey{}, link(id, request))))
		t.add(id, parent, request, name(r), start, time.Now(), 0)
	})
}

// spanTransport is the router's outbound transport in the traced run: it
// forwards the link of the cluster.route span to the shards.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if l, ok := r.Context().Value(linkKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, l)
	}
	return s.base.RoundTrip(r)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// nameStats summarises the spans of one name.
type nameStats struct {
	Count      int     `json:"count"`
	P50US      float64 `json:"p50_us"`
	P50SelfUS  float64 `json:"p50_self_us"`
	PerItemNS  float64 `json:"p50_per_item_ns,omitempty"`
	TotalSelfS float64 `json:"total_self_s"`
}

func (t *tracer) summary() map[string]nameStats {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self := selfTimes(spans)
	durs, selfs, items := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
		if s.Items > 0 {
			items[s.Name] = append(items[s.Name], d/float64(s.Items))
		}
	}
	out := map[string]nameStats{}
	for name, ds := range durs {
		total := 0.0
		for _, v := range selfs[name] {
			total += v
		}
		out[name] = nameStats{
			Count: len(ds), P50US: median(ds) / 1e3, P50SelfUS: median(selfs[name]) / 1e3,
			PerItemNS: median(items[name]), TotalSelfS: total / 1e9,
		}
	}
	return out
}

// writeFile writes bench/out/trace-<workload>.json: the run with its
// per-layer metrics, the per-name summary and the spans of the first
// requests of each kind.
func (t *tracer) writeFile(dir string, rec *runRecord, sum map[string]nameStats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	kept := len(spans)
	perRoot, listed := map[string]int{}, map[int64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && perRoot[s.Name] < fileRequests {
			perRoot[s.Name]++
			listed[s.Request] = true
		}
	}
	var sample []span
	for _, s := range spans {
		if listed[s.Request] {
			sample = append(sample, s)
		}
	}
	raw, err := json.MarshalIndent(struct {
		Run     *runRecord           `json:"run"`
		Names   map[string]nameStats `json:"span_summary"`
		Kept    int                  `json:"spans_kept"`
		Dropped int                  `json:"spans_dropped"`
		Spans   []span               `json:"spans"`
	}{rec, sum, kept, dropped, sample}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", rec.Workload))
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
