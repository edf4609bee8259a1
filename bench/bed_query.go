package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/cluster"
	"apclassifier/internal/network"
	"apclassifier/internal/server"
)

// handlerName names the span a hosted apserver handler records.
func handlerName(r *http.Request) string {
	if r.URL.Path == "/rules/batch" {
		return "server.rules"
	}
	return "server.handler"
}

// serveClassifier hosts server.New(c).Handler() on loopback, wrapped for
// spans in the traced run only.
func serveClassifier(e *env, c *apclassifier.Classifier, part cluster.Partition) (*hosted, error) {
	s := server.New(c)
	s.SetPartition(part)
	h := s.Handler()
	if e.tr != nil {
		h = e.tr.wrap(handlerName, h)
	}
	return listen(h)
}

// libBed is lib_query: the facade called in-process, no server.
type libBed struct {
	e       *env
	w       *world
	queries []query
	want    []uint32 // fingerprint of each header's checked answer
}

func setupLib(e *env) (bed, error) {
	w, err := e.build(e.internet2)
	if err != nil {
		return nil, err
	}
	f := w.ds.RandomFields(rngFor(e.seed, 0))
	b := w.c.Behavior(0, w.ds.PacketFromFields(f))
	if want := w.ds.Simulate(0, f).Delivered; !sameHosts(hostsOf(b), want) {
		return nil, fmt.Errorf("first answer delivered %v, oracle says %v", hostsOf(b), want)
	}
	return &libBed{e: e, w: w}, nil
}

func hostsOf(b *network.Behavior) []string {
	out := make([]string, len(b.Deliveries))
	for i, d := range b.Deliveries {
		out[i] = d.Host
	}
	return out
}

// fingerprint is a cheap in-window check that a facade answer is still
// the one the correctness pass saw.
func fingerprint(b *network.Behavior) uint32 {
	return uint32(len(b.Edges))<<16 | uint32(len(b.Deliveries))<<8 | uint32(len(b.Drops))
}

func (b *libBed) prepare() (attempted, failed int, err error) {
	b.queries = genQueries(rngFor(b.e.seed, 1), b.w, b.e.sz.headers, nil)
	b.want = make([]uint32, len(b.queries))
	wk := b.w.c.NewWalker()
	for i, q := range b.queries {
		bh := b.w.c.BehaviorWith(wk, q.ingress, q.pkt)
		b.want[i] = fingerprint(bh)
		if i < b.e.sz.probes {
			attempted++
			if !sameHosts(hostsOf(bh), b.w.ds.Simulate(q.ingress, q.f).Delivered) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

func (b *libBed) slice(d time.Duration, tr *tracer) sliceStat {
	st := sliceStat{}
	c, n, wk := b.w.c, len(b.queries), b.w.c.NewWalker()
	start := time.Now()
	deadlineLoop(d, 0, 1, func(chunk int) {
		base := chunk * libChunk % n
		id, t0 := int64(0), time.Now()
		if tr != nil {
			id = tr.newID()
		}
		for i := base; i < base+libChunk && i < n; i++ {
			q := &b.queries[i]
			if fingerprint(c.BehaviorWith(wk, q.ingress, q.pkt)) != b.want[i] {
				st.failed++
			}
			st.ops++
			st.reqs++
		}
		t1 := time.Now()
		if tr != nil {
			tr.add(id, 0, id, "client.call", t0, t1, libChunk)
		}
		st.lat = append(st.lat, t1.Sub(t0).Nanoseconds())
	})
	st.dur = time.Since(start)
	return st
}

// mergeStats sums the per-worker parts of one slice.
func mergeStats(parts []sliceStat, dur time.Duration) sliceStat {
	out := sliceStat{dur: dur}
	for _, p := range parts {
		out.ops += p.ops
		out.reqs += p.reqs
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
		if p.stall > out.stall {
			out.stall = p.stall
		}
	}
	return out
}

func (b *libBed) recheck() (int, int, error) { return 0, 0, nil }

func (b *libBed) replay(tr *tracer) error {
	return replayQueries(tr, b.w, nil, "", b.queries, nil, nil, libChunk, b.e.sz.replays)
}

func (b *libBed) close() {}

// recorded serves one request on h without a socket; the status must be 200.
func recorded(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	return nil
}

// replayQueries drives each stage of the query path at its public
// boundary on the same generated inputs, n requests of per headers each,
// from one goroutine with nothing else running: the hosted handler on a
// recorder, JSON decode of the request body, per-header and batch stage-1
// classify, the stage-2 walk given the leaves, JSON encode of the answer.
// h and bodies may be nil (lib_query has neither a server nor a wire form).
func replayQueries(tr *tracer, w *world, h http.Handler, path string, qs []query, bodies, answers [][]byte, per, n int) error {
	n = min(n, len(qs)/per)
	single := per == 1
	buf := w.c.NewBatchBuffer()
	snap := w.c.Snapshot()
	pkts, ingress := make([][][]byte, n), make([][]int, n)
	for i := range pkts {
		for _, q := range qs[i*per : (i+1)*per] {
			pkts[i], ingress[i] = append(pkts[i], q.pkt), append(ingress[i], q.ingress)
		}
		// Untimed: the behaviour cache holds every replayed class, as it
		// does in the steady state the window measured.
		snap.BehaviorBatch(buf, ingress[i], pkts[i])
	}
	if h != nil {
		if err := tr.stage("server.handler.idle", n, per, func(i int) error { return recorded(h, path, bodies[i]) }); err != nil {
			return err
		}
	}
	if bodies != nil {
		err := tr.stage("server.decode", n, per, func(i int) error {
			if single {
				return json.Unmarshal(bodies[i], new(server.QueryRequest))
			}
			return json.Unmarshal(bodies[i], new([]server.QueryRequest))
		})
		if err != nil {
			return err
		}
	}
	leaves := make([][]*aptree.Node, n)
	_ = tr.stage("aptree.classify", n, per, func(i int) error {
		for _, p := range pkts[i] {
			leaves[i] = append(leaves[i], snap.Classify(p))
		}
		return nil
	})
	if !single {
		_ = tr.stage("aptree.classify_batch", n, per, func(i int) error {
			snap.ClassifyBatch(buf, pkts[i])
			return nil
		})
	}
	_ = tr.stage("network.walk", n, per, func(i int) error {
		if single {
			snap.BehaviorFrom(ingress[i][0], pkts[i][0], leaves[i][0])
		} else {
			snap.BehaviorBatchFrom(buf, ingress[i], pkts[i], leaves[i])
		}
		return nil
	})
	if answers == nil {
		return nil
	}
	decoded := make([][]server.QueryResponse, n)
	for i := range decoded {
		var err error
		if decoded[i], err = decodeAnswers(answers[i], single); err != nil {
			return err
		}
	}
	return tr.stage("server.encode", n, per, func(i int) error {
		var err error
		if single {
			_, err = json.Marshal(decoded[i][0])
		} else {
			_, err = json.Marshal(decoded[i])
		}
		return err
	})
}

// httpBed is a closed-loop HTTP query workload with byte-exact expected
// answers: query_single, query_batch and router_batch.
type httpBed struct {
	e      *env
	shards []*world  // one world, or the router's two
	hosts  []*hosted // the shards, then the router if any
	conn   *conn
	target string // URL the load is posted to
	path   string
	per    int // headers per request
	nBody  int

	queries      []query
	bodies, want [][]byte
}

func (b *httpBed) single() bool { return b.per == 1 }

func (b *httpBed) close() {
	b.conn.close()
	for _, h := range b.hosts {
		h.close()
	}
}

// direct sets up one classifier behind one server.
func direct(e *env, w *world, path string, per, nBody int) (bed, error) {
	b := &httpBed{e: e, shards: []*world{w}, path: path, per: per, nBody: nBody, conn: newConn()}
	h, err := serveClassifier(e, w.c, cluster.Partition{})
	if err != nil {
		return nil, err
	}
	b.hosts = append(b.hosts, h)
	b.target = h.url + path
	if err := firstAnswer(e, w.ds, b.conn, b.target, b.single()); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func setupSingle(e *env) (bed, error) {
	w, err := e.build(e.internet2)
	if err != nil {
		return nil, err
	}
	return direct(e, w, "/query", 1, e.sz.singles)
}

func setupBatch(e *env) (bed, error) {
	w, err := e.build(e.stanford)
	if err != nil {
		return nil, err
	}
	return direct(e, w, "/query/batch", batchSize, e.sz.batches)
}

// setupRouter builds shard 0 cold, restores shard 1 from shard 0's
// checkpoint (the warm path a bootstrapping peer takes), hosts both with
// their partitions and puts a default-configured header-mode router in
// front.
func setupRouter(e *env) (bed, error) {
	w0, err := e.build(e.stanford)
	if err != nil {
		return nil, err
	}
	var ckpt bytes.Buffer
	t0 := time.Now()
	if err := checkpoint.Encode(&ckpt, w0.c.CheckpointSource()); err != nil {
		return nil, err
	}
	t1 := time.Now()
	e.layers["checkpoint.size_kb"] = float64(ckpt.Len()) / 1024
	res, err := checkpoint.Decode(&ckpt)
	if err != nil {
		return nil, err
	}
	c1, err := apclassifier.NewFromRestored(res)
	if err != nil {
		return nil, err
	}
	e.layers["checkpoint.save_ms"] = t1.Sub(t0).Seconds() * 1e3
	e.layers["checkpoint.restore_ms"] = time.Since(t1).Seconds() * 1e3

	b := &httpBed{e: e, shards: []*world{w0, {ds: c1.Dataset, c: c1}}, path: "/query/batch", per: batchSize, nBody: e.sz.batches, conn: newConn()}
	cfg := cluster.Config{Mode: cluster.ModeHeader}
	for k, w := range b.shards {
		h, err := serveClassifier(e, w.c, cluster.Partition{Mode: cluster.ModeHeader, Index: k, Total: len(b.shards)})
		if err != nil {
			b.close()
			return nil, err
		}
		b.hosts = append(b.hosts, h)
		cfg.Shards = append(cfg.Shards, h.url)
	}
	if e.tr != nil {
		// The router's default client, plus the span link on the way out.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64
		cfg.Client = &http.Client{Transport: spanTransport{t}}
	}
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		b.close()
		return nil, err
	}
	rh := router.Handler()
	if e.tr != nil {
		rh = e.tr.wrap(func(*http.Request) string { return "cluster.route" }, rh)
	}
	h, err := listen(rh)
	if err != nil {
		b.close()
		return nil, err
	}
	b.hosts = append(b.hosts, h)
	b.target = h.url + b.path
	if err := firstAnswer(e, w0.ds, b.conn, b.target, false); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// prepare posts every body once. The first probes headers are held
// against the oracle; every answer becomes the byte-exact expectation the
// measured window compares against (the dataset is static, so an epoch's
// answer to a body never changes).
func (b *httpBed) prepare() (attempted, failed int, err error) {
	w := b.shards[0]
	b.queries = genQueries(rngFor(b.e.seed, 1), w, b.nBody*b.per, nil)
	if b.bodies, err = encodeBodies(w.ds, b.queries, b.per, b.single()); err != nil {
		return 0, 0, err
	}
	b.want, attempted, failed, err = askAll(b.conn, b.target, w.ds, b.queries, b.bodies, b.per, b.e.sz.probes)
	return attempted, failed, err
}

func (b *httpBed) slice(d time.Duration, tr *tracer) sliceStat {
	st := sliceStat{}
	start := time.Now()
	deadlineLoop(d, 0, 1, func(i int) {
		i %= len(b.bodies)
		status, raw, t0, t1, err := b.conn.call(tr, "client.request", b.target, b.bodies[i], b.per)
		st.reqs++
		if err != nil || status != http.StatusOK || !bytes.Equal(raw, b.want[i]) {
			st.failed++
			return
		}
		st.ops += int64(b.per)
		dt := t1.Sub(t0).Nanoseconds()
		st.lat = append(st.lat, dt)
		st.stall = max(st.stall, dt)
	})
	st.dur = time.Since(start)
	return st
}

func (b *httpBed) recheck() (int, int, error) { return 0, 0, nil }

func (b *httpBed) replay(tr *tracer) error {
	n := min(b.e.sz.replays, len(b.bodies))
	if len(b.shards) == 1 {
		return replayQueries(tr, b.shards[0], b.hosts[0].srv.Handler, b.path, b.queries, b.bodies, b.want, b.per, n)
	}
	// A shard's handler sees only its sub-batch, so the handler replay is
	// left to query_batch, which sends the same bodies.
	if err := replayQueries(tr, b.shards[0], nil, "", b.queries, b.bodies, b.want, b.per, n); err != nil {
		return err
	}
	// cluster.route.idle: the router's handler on a recorder, live shards.
	router := b.hosts[len(b.shards)].srv.Handler
	if err := tr.stage("cluster.route.idle", n, b.per, func(i int) error { return recorded(router, b.path, b.bodies[i]) }); err != nil {
		return err
	}
	// cluster.shard_wait: the sub-batches the router would send, sent
	// directly and concurrently; the request waits for the slower one.
	ds := b.shards[0].ds
	sub := make([][][]byte, n)
	for i := range sub {
		split := make([][]query, len(b.shards))
		for _, q := range b.queries[i*b.per : (i+1)*b.per] {
			k := cluster.ShardOf(cluster.ModeHeader, len(b.shards), ds.Boxes[q.ingress].Name, q.f)
			split[k] = append(split[k], q)
		}
		sub[i] = make([][]byte, len(split))
		for k, qs := range split {
			if len(qs) == 0 {
				continue
			}
			enc, err := encodeBodies(ds, qs, len(qs), false)
			if err != nil {
				return err
			}
			sub[i][k] = enc[0]
		}
	}
	conns := make([]*conn, len(b.shards))
	for k := range conns {
		conns[k] = newConn()
		defer conns[k].close()
	}
	return tr.stage("cluster.shard_wait", n, b.per, func(i int) error {
		errs := make([]error, len(sub[i]))
		var wg sync.WaitGroup
		for k, body := range sub[i] {
			if body == nil {
				continue
			}
			wg.Add(1)
			go func(k int, body []byte) {
				defer wg.Done()
				status, raw, err := conns[k].do(http.MethodPost, b.hosts[k].url+b.path, body, "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("shard %d: status %d: %s", k, status, raw)
				}
				errs[k] = err
			}(k, body)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}
