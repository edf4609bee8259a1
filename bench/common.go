package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
	"apclassifier/internal/server"
)

// world is one compiled dataset, as a set-up builds it.
type world struct {
	ds *netgen.Dataset
	c  *apclassifier.Classifier
}

func (e *env) internet2() *netgen.Dataset {
	return netgen.Internet2Like(netgen.Config{Seed: datasetSeed, RuleScale: e.sz.i2Scale})
}

func (e *env) stanford() *netgen.Dataset {
	return netgen.StanfordLike(netgen.Config{Seed: datasetSeed, RuleScale: e.sz.sfScale})
}

func (e *env) fatTree() *netgen.Dataset { return netgen.FatTree(e.sz.fat) }

// build generates and compiles a dataset, timing both stages. The traced
// run also times TreeInput + aptree.Build, on a throw-away classifier:
// recomputing the atoms leaves scratch nodes in the DD it runs on, which
// the classifier under test must not carry into the measured window.
func (e *env) build(gen func() *netgen.Dataset) (*world, error) {
	t0 := time.Now()
	ds := gen()
	t1 := time.Now()
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		return nil, err
	}
	e.layers["netgen.generate_ms"] = t1.Sub(t0).Seconds() * 1e3
	e.layers["apclassifier.build_ms"] = time.Since(t1).Seconds() * 1e3
	e.layers["aptree.atoms"] = float64(c.NumAtoms())
	e.layers["aptree.predicates"] = float64(c.NumPredicates())
	e.layers["aptree.avg_depth"] = c.AverageDepth()
	if e.tr != nil {
		scratch, err := apclassifier.New(gen(), apclassifier.Options{})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		aptree.Build(scratch.TreeInput(), aptree.MethodOAPT)
		e.layers["aptree.build_ms"] = time.Since(t2).Seconds() * 1e3
	}
	return &world{ds: ds, c: c}, nil
}

// hosted is an http.Server on a loopback listener inside this process.
type hosted struct {
	srv  *http.Server // srv.Handler is also called directly, on a recorder, by the layer replays
	url  string
	done chan error
}

func listen(h http.Handler) (*hosted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hd := &hosted{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { hd.done <- hd.srv.Serve(ln) }()
	return hd, nil
}

// close stops the server and waits for its accept loop to return.
func (h *hosted) close() {
	_ = h.srv.Close() // the listener is loopback and ours; nothing to report
	<-h.done
}

// conn is one keep-alive client connection with a reusable read buffer.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// spanHeader carries "<parent span>/<request>" from a traced client call
// to the handlers this process hosts.
const spanHeader = "X-Bench-Span"

// do sends one request and returns the status and the body, which is
// valid until the connection's next call. link, when non-empty, is the
// spanHeader value.
func (cn *conn) do(method, url string, body []byte, link string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if link != "" {
		req.Header.Set(spanHeader, link)
	}
	resp, err := cn.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	cn.buf.Reset()
	if _, err := cn.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, cn.buf.Bytes(), nil
}

// call sends one request of the measured load. In the traced run it is a
// root span named name, and the handlers it reaches link their spans to it.
func (cn *conn) call(tr *tracer, name, url string, body []byte, items int) (status int, raw []byte, t0, t1 time.Time, err error) {
	if tr == nil {
		t0 = time.Now()
		status, raw, err = cn.do(http.MethodPost, url, body, "")
		return status, raw, t0, time.Now(), err
	}
	id := tr.newID()
	t0 = time.Now()
	status, raw, err = cn.do(http.MethodPost, url, body, link(id, id))
	t1 = time.Now()
	tr.add(id, 0, id, name, t0, t1, items)
	return status, raw, t0, t1, err
}

func (cn *conn) close() { cn.hc.CloseIdleConnections() }

// askAll posts every body once and returns a copy of each answer. The
// answers to the first probes headers are held against the rule tables of
// oracle.
func askAll(cn *conn, url string, oracle *netgen.Dataset, qs []query, bodies [][]byte, per, probes int) (answers [][]byte, attempted, failed int, err error) {
	answers = make([][]byte, len(bodies))
	for i, body := range bodies {
		status, raw, err := cn.do(http.MethodPost, url, body, "")
		if err != nil || status != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("body %d: status %d: %s: %v", i, status, raw, err)
		}
		answers[i] = append([]byte(nil), raw...)
		if i*per >= probes {
			continue
		}
		as, err := decodeAnswers(raw, raw[0] == '{')
		if err != nil || len(as) != per {
			return nil, 0, 0, fmt.Errorf("body %d: %d answers for %d queries: %v", i, len(as), per, err)
		}
		for j, a := range as {
			q := qs[i*per+j]
			attempted++
			if !sameHosts(a.Delivered, oracle.Simulate(q.ingress, q.f).Delivered) {
				failed++
			}
		}
	}
	return answers, attempted, failed, nil
}

// query is one generated (ingress, header) pair in every form the
// workloads need: 5-tuple for the oracle and the wire, packet bytes for
// the facade.
type query struct {
	ingress int
	f       rule.Fields
	pkt     []byte
}

func fieldsOf(l *header.Layout, pkt []byte) rule.Fields {
	get := func(name string) uint64 {
		if _, ok := l.FieldByName(name); ok {
			return l.Get(pkt, name)
		}
		return 0
	}
	return rule.Fields{
		Src: uint32(get("srcIP")), Dst: uint32(get("dstIP")),
		SrcPort: uint16(get("srcPort")), DstPort: uint16(get("dstPort")), Proto: uint8(get("proto")),
	}
}

// genQueries draws n headers uniformly over the atoms of the published
// epoch (the paper's query workload) with a uniform ingress box each. When
// inside is non-empty, every second header has its destination redrawn
// within one of those prefixes.
func genQueries(rng *rand.Rand, w *world, n int, inside []rule.Prefix) []query {
	layout, boxes := w.ds.Layout, len(w.ds.Boxes)
	snap := w.c.Manager.Snapshot()
	view, frozen := snap.Atoms(), snap.View()
	var ids []int32
	view.Each(func(id int32) bool { ids = append(ids, id); return true })
	assign := make(map[int32][]int8, len(ids))
	out := make([]query, n)
	for i := range out {
		id := ids[rng.Intn(len(ids))]
		a, ok := assign[id]
		if !ok {
			a = frozen.AnySat(view.BDD(id))
			assign[id] = a
		}
		pkt := make([]byte, layout.Bytes())
		rng.Read(pkt)
		for v, bit := range a {
			mask := byte(0x80 >> uint(v%8))
			switch bit {
			case 1:
				pkt[v/8] |= mask
			case 0:
				pkt[v/8] &^= mask
			}
		}
		if len(inside) > 0 && i%2 == 1 {
			p := inside[rng.Intn(len(inside))]
			low := uint32(0)
			if p.Length < 32 {
				low = rng.Uint32() >> uint(p.Length)
			}
			layout.Set(pkt, "dstIP", uint64(p.Value|low))
		}
		out[i] = query{ingress: rng.Intn(boxes), f: fieldsOf(layout, pkt), pkt: pkt}
	}
	return out
}

// wire renders a query as the server's request type.
func wire(ds *netgen.Dataset, q query) server.QueryRequest {
	r := server.QueryRequest{
		Ingress: ds.Boxes[q.ingress].Name, Dst: header.FormatIPv4(q.f.Dst),
		SrcPort: q.f.SrcPort, DstPort: q.f.DstPort, Proto: q.f.Proto,
	}
	if q.f.Src != 0 {
		r.Src = header.FormatIPv4(q.f.Src)
	}
	return r
}

// encodeBodies pre-encodes the queries as request bodies of per headers
// each: a JSON object for /query, an array for /query/batch.
func encodeBodies(ds *netgen.Dataset, qs []query, per int, single bool) ([][]byte, error) {
	bodies := make([][]byte, 0, len(qs)/per)
	for i := 0; i+per <= len(qs); i += per {
		var v interface{}
		if single {
			v = wire(ds, qs[i])
		} else {
			reqs := make([]server.QueryRequest, per)
			for j := range reqs {
				reqs[j] = wire(ds, qs[i+j])
			}
			v = reqs
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// decodeAnswers parses a /query or /query/batch response body.
func decodeAnswers(raw []byte, single bool) ([]server.QueryResponse, error) {
	if single {
		var r server.QueryResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, err
		}
		return []server.QueryResponse{r}, nil
	}
	var rs []server.QueryResponse
	err := json.Unmarshal(raw, &rs)
	return rs, err
}

// sameHosts compares two delivered-host sets.
func sameHosts(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// firstAnswer is the end of a set-up: one query through the workload's
// path must come back agreeing with the rule-table oracle.
func firstAnswer(e *env, ds *netgen.Dataset, cn *conn, url string, single bool) error {
	q := query{ingress: 0, f: ds.RandomFields(rngFor(e.seed, 0))}
	bodies, err := encodeBodies(ds, []query{q}, 1, single)
	if err != nil {
		return err
	}
	status, raw, err := cn.do(http.MethodPost, url, bodies[0], "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first answer: status %d: %s", status, raw)
	}
	as, err := decodeAnswers(raw, single)
	if err != nil || len(as) != 1 {
		return fmt.Errorf("first answer: bad body %q: %v", raw, err)
	}
	if want := ds.Simulate(q.ingress, q.f).Delivered; !sameHosts(as[0].Delivered, want) {
		return fmt.Errorf("first answer delivered %v, oracle says %v", as[0].Delivered, want)
	}
	return nil
}

// deadlineLoop calls step(i) with i = worker, worker+stride, … until d
// has passed.
func deadlineLoop(d time.Duration, worker, stride int, step func(i int)) {
	end := time.Now().Add(d)
	for i := worker; time.Now().Before(end); i += stride {
		step(i)
	}
}
