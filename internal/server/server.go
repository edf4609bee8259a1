// Package server exposes a classifier over HTTP/JSON — the shape in which
// an SDN controller would embed AP Classifier as a service: behavior
// queries, live rule updates, reconstruction, and invariant checks, all on
// one classifier instance.
//
// Endpoints:
//
//	GET  /stats                     → dataset and classifier statistics
//	POST /query                     → {"dst":"10.1.2.3","ingress":"seattle", ...} → behavior
//	POST /query/batch               → [query, ...] → [behavior, ...] (≤256 per request)
//	POST /rules/batch[?seq=n]       → [delta, ...] → one epoch per batch (≤256, idempotent via seq)
//	POST /reconstruct               → {"weighted":false}
//	POST /checkpoint                → force a checkpoint save (503 if disabled)
//	GET  /checkpoint/latest         → newest committed checkpoint file (peer bootstrap)
//	GET  /healthz                   → readiness: 200 serving, 503 draining; epoch + delta cursor
//	GET  /verify/loops              → loop-freedom check over all packets (epoch-pinned)
//	GET  /verify/reach?from=a&host=h → exact reachability summary (epoch-pinned; 400 on an unknown box or host)
//	GET  /verify/blackholes?from=a  → packets dropped with no route (epoch-pinned)
//	                                  (all /verify/*: 422 on a network hosting a middlebox)
//	GET  /metrics                   → Prometheus text exposition of the obs registry
//	GET  /debug/trace?n=k           → last k per-query stage traces (JSON)
//	GET  /debug/pprof/...           → net/http/pprof profiles
//
// /query and /query/batch take no lock: each request pins one classifier
// snapshot, whose tree and port/ACL wiring are published together, and
// answers entirely from that epoch; the topology they resolve names
// against never changes after setup. The /verify/* handlers pin an epoch
// the same way. The server's mutex guards only the dataset's rule
// tables, which ApplyRuleDeltas edits in place: /rules/batch and
// /reconstruct take it for writing, /stats and checkpoint capture for
// reading.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/cluster"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/obs"
	"apclassifier/internal/rule"
	"apclassifier/internal/verify"
)

// traceRingSize is how many recent query traces /debug/trace retains.
const traceRingSize = 256

// Request-layer latency histograms. The stage-1 classify duration is
// recorded here — at the request layer, once per query — rather than
// inside Snapshot.Classify, where even one atomic add would not fit the
// lock-free path's budget (see DESIGN §7).
var (
	mQueryDur = obs.Default.Histogram("apc_server_query_duration_seconds",
		"End-to-end /query latency: parse, pin, classify, walk, encode.", obs.DefBuckets)
	mClassifyDur = obs.Default.Histogram("apc_aptree_classify_duration_seconds",
		"Stage-1 AP Tree classification latency, sampled per /query request.", obs.DefBuckets)
	mWalkDur = obs.Default.Histogram("apc_network_walk_duration_seconds",
		"Stage-2 behavior-walk latency, sampled per /query request.", obs.DefBuckets)
	mBatchDur = obs.Default.Histogram("apc_server_batch_duration_seconds",
		"End-to-end /query/batch latency: parse, pin, batch classify, batch walk, encode.", obs.DefBuckets)
	mBatchClassifyDur = obs.Default.Histogram("apc_aptree_batch_classify_duration_seconds",
		"Stage-1 batch classification latency (whole batch), per /query/batch request.", obs.DefBuckets)
	mBatchWalkDur = obs.Default.Histogram("apc_network_batch_walk_duration_seconds",
		"Stage-2 batch behavior latency (whole batch), per /query/batch request.", obs.DefBuckets)
	mBatchSize = obs.Default.Histogram("apc_batch_size",
		"Accepted /query/batch sizes (packets per request).", batchSizeBuckets)
)

// maxBatch bounds a /query/batch request; larger batches are refused with
// 413 so one request cannot hold decoded packets and results for an
// unbounded payload. Clients split bigger workloads into several
// requests — throughput saturates well before this size (EXPERIMENTS.md).
const maxBatch = 256

// Byte bounds on POST bodies, enforced with http.MaxBytesReader before
// any decode: a hostile Content-Length (or chunked stream) is cut off
// at the limit and answered with 413 instead of being buffered. Batch
// endpoints get the larger bound (an ACL-heavy rules batch is big);
// single-object endpoints a tight one.
const (
	maxSingleBody = 64 << 10
	maxBatchBody  = 8 << 20
)

// batchSizeBuckets are power-of-two size buckets up to maxBatch.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Server wraps a classifier with an HTTP API.
type Server struct {
	// mu guards the dataset's rule tables: write-locked by rule updates
	// and reconstructions, read-locked by /stats and checkpoint capture.
	// Queries read only the pinned epoch and the fixed topology.
	mu sync.RWMutex
	c  *apclassifier.Classifier
	ds *netgen.Dataset

	// trace holds the stage traces of the most recent /query requests,
	// which handleQuery records and /debug/trace serves. Recording takes
	// the ring's mutex, the one lock on the /query path; library Behavior
	// calls on the same classifier record nothing and take no lock.
	trace *obs.TraceRing

	// ckpt is the managed checkpoint directory, set by EnableCheckpoints
	// before the handler serves traffic; nil means POST /checkpoint
	// answers 503.
	ckpt *checkpoint.Dir

	// bufs pools BatchBuffers for /query/batch, one checked out per
	// in-flight request, so steady-state batches reuse classify scratch,
	// result slices and walker state instead of allocating them.
	bufs sync.Pool

	// part is this worker's slice of the cluster partition; the zero
	// value (set unless SetPartition was called) owns all of header
	// space — the single-process configuration.
	part cluster.Partition

	// draining flips when graceful shutdown begins: /healthz answers 503
	// so the router (or any load balancer) stops routing new work here
	// while in-flight requests finish. Queries keep being served until
	// the listener actually closes — drain is advisory, not a gate.
	draining atomic.Bool
}

// New builds a server around a compiled classifier. The classifier's
// derived metrics are registered into the process-wide obs registry
// (newest classifier wins).
func New(c *apclassifier.Classifier) *Server {
	s := &Server{c: c, ds: c.Dataset, trace: obs.NewTraceRing(traceRingSize)}
	s.bufs.New = func() interface{} { return c.NewBatchBuffer() }
	c.RegisterMetrics(obs.Default)
	return s
}

// SetPartition restricts the server to one shard of a cluster
// partition: queries outside the slice are refused with 421 Misdirected
// Request (a router bug, or a stale shard table — never silently served
// by the wrong worker's cache and counters). Call before Handler serves
// traffic. The zero Partition restores single-process behavior.
func (s *Server) SetPartition(p cluster.Partition) { s.part = p }

// StartDrain marks the server draining: /healthz flips to 503 so
// routers stop sending new work, while every other endpoint keeps
// answering until the HTTP server is shut down. Safe to call more than
// once. This is step one of the rolling-restart sequence; see
// cmd/apserver's signal handler for the full ordering.
func (s *Server) StartDrain() { s.draining.Store(true) }

// decodeBody bounds the request body at limit bytes and decodes it into
// v, answering 413 on overflow and 400 on malformed JSON. The returned
// bool reports whether the handler should proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
		} else {
			writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		}
		return false
	}
	return true
}

// Handler returns the HTTP handler (mountable under any mux).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /query/batch", s.handleQueryBatch)
	mux.HandleFunc("POST /rules/batch", s.handleRulesBatch)
	mux.HandleFunc("POST /reconstruct", s.handleReconstruct)
	mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /verify/loops", s.handleLoops)
	mux.HandleFunc("GET /verify/reach", s.handleReach)
	mux.HandleFunc("GET /verify/blackholes", s.handleBlackholes)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /checkpoint/latest", s.handleCheckpointLatest)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already on the wire; an encode failure here means
	// the client went away and there is nothing left to report to it.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Dataset    string  `json:"dataset"`
	Boxes      int     `json:"boxes"`
	Rules      int     `json:"rules"`
	ACLRules   int     `json:"aclRules"`
	Predicates int     `json:"predicates"`
	Atoms      int     `json:"atoms"`
	AvgDepth   float64 `json:"avgTreeDepth"`
	LiveMemMB  float64 `json:"liveMemMB"`
	Version    uint64  `json:"treeVersion"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// One snapshot serves the whole response: predicate count, atom
	// count, depth, memory and version all describe the same epoch, and
	// the BDD statistics come from the epoch's frozen view rather than
	// from the live DD a concurrent update may be growing.
	snap := s.c.Snapshot()
	writeJSON(w, http.StatusOK, StatsResponse{
		Dataset:    s.ds.Name,
		Boxes:      len(s.ds.Boxes),
		Rules:      s.ds.NumRules(),
		ACLRules:   s.ds.NumACLRules(),
		Predicates: snap.NumPredicates(),
		Atoms:      snap.NumAtoms(),
		AvgDepth:   snap.AverageDepth(),
		LiveMemMB:  float64(snap.LiveMemBytes()) / 1e6,
		Version:    snap.Version(),
	})
}

// QueryRequest is the /query payload. Addresses are dotted quads; ingress
// is a box name. Fields the layout lacks are ignored.
type QueryRequest struct {
	Ingress string `json:"ingress"`
	Dst     string `json:"dst"`
	Src     string `json:"src,omitempty"`
	SrcPort uint16 `json:"srcPort,omitempty"`
	DstPort uint16 `json:"dstPort,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
}

// QueryResponse is the /query result.
type QueryResponse struct {
	Atom      int32    `json:"atom"`
	Depth     int32    `json:"searchDepth"`
	Delivered []string `json:"delivered"`
	Drops     []string `json:"drops"`
	Path      []string `json:"path,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, maxSingleBody, &req) {
		return
	}
	f, err := req.fields()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.part.Owns(req.Ingress, f) {
		writeErr(w, http.StatusMisdirectedRequest,
			"query belongs to shard %d, this worker serves %s", s.part.Shard(req.Ingress, f), s.part)
		return
	}
	ingress := s.c.Net.BoxByName(req.Ingress)
	if ingress < 0 {
		writeErr(w, http.StatusBadRequest, "unknown ingress box %q", req.Ingress)
		return
	}
	pkt := s.ds.PacketFromFields(f)
	// Pin one epoch for the whole request so the reported atom and the
	// traversal agree even if the tree is swapped mid-request. Stage
	// boundaries are timed for the latency histograms and the trace ring.
	t0 := time.Now()
	snap := s.c.Snapshot()
	t1 := time.Now()
	leaf := snap.Classify(pkt)
	t2 := time.Now()
	b := snap.BehaviorFrom(ingress, pkt, leaf)
	t3 := time.Now()
	mClassifyDur.Record(t2.Sub(t1).Seconds())
	mWalkDur.Record(t3.Sub(t2).Seconds())
	mQueryDur.Record(t3.Sub(t0).Seconds())
	s.trace.Record(obs.QueryTrace{
		Start:    t0,
		Ingress:  ingress,
		Atom:     int(leaf.AtomID),
		Depth:    int(leaf.Depth),
		Visits:   int(leaf.Depth) + 1,
		Version:  snap.Version(),
		PinNs:    t1.Sub(t0).Nanoseconds(),
		ClassNs:  t2.Sub(t1).Nanoseconds(),
		WalkNs:   t3.Sub(t2).Nanoseconds(),
		Hops:     len(b.Edges),
		Delivers: len(b.Deliveries),
		Drops:    len(b.Drops),
		Rewrites: b.Rewrites,
	})
	writeJSON(w, http.StatusOK, s.buildResponse(leaf, b))
}

// buildResponse renders one answered query; shared by /query and
// /query/batch so the two endpoints cannot drift in shape.
func (s *Server) buildResponse(leaf *aptree.Node, b *network.Behavior) QueryResponse {
	resp := QueryResponse{Atom: leaf.AtomID, Depth: leaf.Depth}
	for _, d := range b.Deliveries {
		resp.Delivered = append(resp.Delivered, d.Host)
	}
	for _, d := range b.Drops {
		resp.Drops = append(resp.Drops, fmt.Sprintf("%s: %s", s.c.Net.Boxes[d.Box].Name, d.Reason))
	}
	if len(b.Deliveries) <= 1 {
		for _, box := range b.Path() {
			resp.Path = append(resp.Path, s.c.Net.Boxes[box].Name)
		}
	}
	return resp
}

// fields converts a request into stage-0 match fields, reporting which
// field (if any) failed to parse.
func (q *QueryRequest) fields() (rule.Fields, error) {
	f := rule.Fields{SrcPort: q.SrcPort, DstPort: q.DstPort, Proto: q.Proto}
	var err error
	if f.Dst, err = parseIP(q.Dst); err != nil {
		return f, fmt.Errorf("dst: %w", err)
	}
	if q.Src != "" {
		if f.Src, err = parseIP(q.Src); err != nil {
			return f, fmt.Errorf("src: %w", err)
		}
	}
	return f, nil
}

// handleQueryBatch answers a JSON array of queries in one request. The
// whole batch is pinned to a single classifier epoch and answered through
// the batched pipeline: one group-by-branch tree descent for all packets,
// and one behavior walk per distinct (ingress, atom) class. Batches above
// maxBatch are refused with 413 Content Too Large.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []QueryRequest
	if !s.decodeBody(w, r, maxBatchBody, &reqs) {
		return
	}
	if len(reqs) > maxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds the %d-query limit; split the workload", len(reqs), maxBatch)
		return
	}
	if len(reqs) == 0 {
		writeJSON(w, http.StatusOK, []QueryResponse{})
		return
	}
	ingress := make([]int, len(reqs))
	pkts := make([][]byte, len(reqs))
	for i := range reqs {
		f, err := reqs[i].fields()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		if !s.part.Owns(reqs[i].Ingress, f) {
			writeErr(w, http.StatusMisdirectedRequest,
				"query %d belongs to shard %d, this worker serves %s", i, s.part.Shard(reqs[i].Ingress, f), s.part)
			return
		}
		ingress[i] = s.c.Net.BoxByName(reqs[i].Ingress)
		if ingress[i] < 0 {
			writeErr(w, http.StatusBadRequest, "query %d: unknown ingress box %q", i, reqs[i].Ingress)
			return
		}
		pkts[i] = s.ds.PacketFromFields(f)
	}
	buf := s.bufs.Get().(*apclassifier.BatchBuffer)
	defer s.bufs.Put(buf)
	t0 := time.Now()
	snap := s.c.Snapshot()
	leaves := snap.ClassifyBatch(buf, pkts)
	t1 := time.Now()
	behaviors := snap.BehaviorBatchFrom(buf, ingress, pkts, leaves)
	t2 := time.Now()
	resps := make([]QueryResponse, len(reqs))
	for i := range resps {
		resps[i] = s.buildResponse(leaves[i], behaviors[i])
	}
	mBatchSize.Record(float64(len(reqs)))
	mBatchClassifyDur.Record(t1.Sub(t0).Seconds())
	mBatchWalkDur.Record(t2.Sub(t1).Seconds())
	mBatchDur.Record(t2.Sub(t0).Seconds())
	writeJSON(w, http.StatusOK, resps)
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Weighted bool `json:"weighted"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSingleBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", int64(maxSingleBody))
			return
		}
		// An absent or malformed body legitimately means unweighted.
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.c.AverageDepth()
	s.c.Reconstruct(req.Weighted)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"avgDepthBefore": before,
		"avgDepthAfter":  s.c.AverageDepth(),
		"treeVersion":    s.c.Manager.Version(),
	})
}

// The verify handlers take no server lock at all: verify.New pins one
// epoch — tree and wiring in one snapshot — and every query after that
// runs against the pinned state. Rule churn through the
// write endpoints proceeds concurrently; the response names the epoch the
// answer is exact for.

// analyzer pins an epoch for a /verify/* handler. A network hosting a
// middlebox gets 422 and nil: atom-level analysis does not cover header
// rewrites, and verify.New panics on them.
func (s *Server) analyzer(w http.ResponseWriter) *verify.Analyzer {
	if b := network.WiringOf(s.c.Manager.Snapshot()).FirstMiddlebox(); b >= 0 {
		writeErr(w, http.StatusUnprocessableEntity,
			"verification does not support middleboxes: box %q rewrites headers", s.c.Net.Boxes[b].Name)
		return nil
	}
	return verify.New(s.c)
}

// hostAttached reports whether a port of the topology faces the named
// host. Attachments are fixed when the classifier is built — rule deltas
// rewrite predicates, never peers — so the live topology answers for
// whatever epoch an analyzer pinned.
func (s *Server) hostAttached(name string) bool {
	for _, b := range s.c.Net.Boxes {
		for i := range b.Ports {
			if p := &b.Ports[i].Peer; p.Kind == network.DestHost && p.Host == name {
				return true
			}
		}
	}
	return false
}

func (s *Server) handleLoops(w http.ResponseWriter, r *http.Request) {
	a := s.analyzer(w)
	if a == nil {
		return
	}
	loops := a.Loops()
	names := make([]string, 0, len(loops))
	for _, l := range loops {
		names = append(names, fmt.Sprintf("atom %d from %s", l.AtomID, a.BoxName(l.Ingress)))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"loopFree": len(loops) == 0, "violations": names, "epoch": a.Epoch(),
	})
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	host := r.URL.Query().Get("host")
	a := s.analyzer(w)
	if a == nil {
		return
	}
	box := a.BoxByName(from)
	if box < 0 {
		writeErr(w, http.StatusBadRequest, "unknown box %q", from)
		return
	}
	set := a.ReachSet(box, host)
	// Nothing reaches an unknown name, which must not read as "attached
	// but unreachable"; an empty host asks for delivery to any host.
	if set.Empty() && host != "" && !s.hostAttached(host) {
		writeErr(w, http.StatusBadRequest, "unknown host %q", host)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"from": from, "host": host, "packets": a.Describe(set),
		"atoms": set.NumAtoms(), "fraction": set.Fraction(), "epoch": a.Epoch(),
	})
}

func (s *Server) handleBlackholes(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	a := s.analyzer(w)
	if a == nil {
		return
	}
	box := a.BoxByName(from)
	if box < 0 {
		writeErr(w, http.StatusBadRequest, "unknown box %q", from)
		return
	}
	set := a.Blackholes(box)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"from": from, "packets": a.Describe(set),
		"atoms": set.NumAtoms(), "fraction": set.Fraction(), "epoch": a.Epoch(),
	})
}

// handleMetrics serves the process-wide obs registry in Prometheus text
// exposition format. It takes no server lock: value metrics are read
// atomically and derived metrics take the manager's read lock themselves.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write failure means the scraper went away mid-response; there is
	// no one left to report it to.
	_ = obs.Default.WritePrometheus(w)
}

// handleTrace serves the newest n per-query stage traces (default 32,
// capped at the ring size), newest first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, "bad n %q: want a positive integer", q)
			return
		}
		n = v
	}
	traces := s.trace.Last(n)
	if traces == nil {
		traces = []obs.QueryTrace{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":  len(traces),
		"traces": traces,
	})
}

// handleHealthz is the cluster readiness probe: 200 once the classifier
// has a published epoch (true by construction — New and NewFromRestored
// both publish before the handler exists) and the server is not
// draining, 503 while draining so routers stop sending new work ahead
// of the listener closing. The payload carries the reconstruction epoch
// and the rule-delta cursor — what the router's skew gauges and "has
// churn converged" checks consume.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := cluster.Health{
		Ready:    !s.draining.Load(),
		Draining: s.draining.Load(),
		Shard:    s.part.String(),
		Epoch:    s.c.Manager.Version(),
		Seq:      s.c.DeltaSeq(),
	}
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// parseIP parses a dotted quad. It delegates to the cluster package's
// parser — the shard function hashes the parsed value, so the router
// and the workers must share one parser or sharding would misdirect.
func parseIP(s string) (uint32, error) { return cluster.ParseIPv4(s) }
