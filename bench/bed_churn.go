package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"apclassifier"
	"apclassifier/internal/cluster"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
	"apclassifier/internal/server"
	"apclassifier/internal/verify"
)

// churnOp is one generated FIB mutation: the insertion of a more-specific
// child prefix routed to a port other than its covering rule's, or the
// removal of an earlier child. Same-port children (what experiments.Churn
// generates) mostly hash-cons into unchanged port predicates and barely
// reach split/merge; these always change a behaviour. The new port is
// always a host port of the box, so the child's packets are delivered
// there and no op can create a forwarding loop: network.Behavior.Path,
// which the server calls for every unicast answer, does not terminate on
// one.
type churnOp struct {
	add    bool
	box    int
	prefix rule.Prefix
	port   int
}

func (op churnOp) delta() apclassifier.RuleDelta {
	if op.add {
		return apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: op.box, Rule: rule.FwdRule{Prefix: op.prefix, Port: op.port}}
	}
	return apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: op.box, Prefix: op.prefix}
}

func (op churnOp) wire(ds *netgen.Dataset) server.RuleDeltaRequest {
	r := server.RuleDeltaRequest{Op: "remove-fwd", Box: ds.Boxes[op.box].Name, Prefix: op.prefix.String()}
	if op.add {
		r.Op, r.Port = "add-fwd", op.port
	}
	return r
}

// applyTo mutates a rule-layer replica the way the program is asked to.
func (op churnOp) applyTo(ds *netgen.Dataset) {
	t := &ds.Boxes[op.box].Fwd
	if op.add {
		t.Add(rule.FwdRule{Prefix: op.prefix, Port: op.port})
	} else {
		t.Remove(op.prefix)
	}
}

// opGen draws churn ops from the seed against its own copy of the tables,
// which it keeps in step with what it has generated so far.
type opGen struct {
	rng       *rand.Rand
	tables    *netgen.Dataset
	edge      [][2]int // (box, host port) pairs of the dataset
	installed []churnOp
	keep      int // children left installed before removals begin
}

func newOpGen(rng *rand.Rand, tables *netgen.Dataset, keep int) *opGen {
	g := &opGen{rng: rng, tables: tables, keep: keep}
	for _, h := range tables.Hosts {
		g.edge = append(g.edge, [2]int{h.Box, h.Port})
	}
	return g
}

func (g *opGen) next() churnOp {
	if len(g.installed) > g.keep {
		op := g.installed[0]
		g.installed = g.installed[1:]
		op.add = false
		op.applyTo(g.tables)
		return op
	}
	for {
		e := g.edge[g.rng.Intn(len(g.edge))]
		box, newPort := e[0], e[1]
		spec := &g.tables.Boxes[box]
		if len(spec.Fwd.Rules) == 0 {
			continue
		}
		parent := spec.Fwd.Rules[g.rng.Intn(len(spec.Fwd.Rules))].Prefix
		if parent.Length > 28 {
			continue
		}
		length := parent.Length + 1 + g.rng.Intn(4)
		child := rule.P(parent.Value|g.rng.Uint32()>>uint(parent.Length), length)
		// The covering rule is the longest one containing the child; an
		// equal prefix would make the add a shadowed duplicate.
		cover, port, dup := -1, 0, false
		for _, r := range spec.Fwd.Rules {
			if r.Prefix == child {
				dup = true
				break
			}
			if r.Prefix.Contains(child) && r.Prefix.Length > cover {
				cover, port = r.Prefix.Length, r.Port
			}
		}
		if dup || (cover >= 0 && port == newPort) {
			continue
		}
		op := churnOp{add: true, box: box, prefix: child, port: newPort}
		op.applyTo(g.tables)
		g.installed = append(g.installed, op)
		return op
	}
}

// churnBed is churn_mixed: connection A asks /query/batch closed-loop
// while connection B posts /rules/batch open-loop on a fixed schedule.
type churnBed struct {
	e      *env
	w      *world
	host   *hosted
	qconn  *conn
	uconn  *conn
	gen    *opGen
	oracle *netgen.Dataset // rule tables in step with the batches sent
	seq    uint64
	sent   [][]churnOp

	queries []query
	bodies  [][]byte
	want    [][]byte
}

func setupChurn(e *env) (bed, error) {
	w, err := e.build(e.internet2)
	if err != nil {
		return nil, err
	}
	h, err := serveClassifier(e, w.c, cluster.Partition{})
	if err != nil {
		return nil, err
	}
	b := &churnBed{e: e, w: w, host: h, qconn: newConn(), uconn: newConn()}
	if err := firstAnswer(e, w.ds, b.qconn, h.url+"/query/batch", false); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *churnBed) close() {
	b.qconn.close()
	b.uconn.close()
	b.host.close()
}

func (b *churnBed) prepare() (attempted, failed int, err error) {
	b.gen = newOpGen(rngFor(b.e.seed, 2), b.e.internet2(), 8)
	b.oracle = b.e.internet2()
	per := b.e.sz.churnBatch
	b.queries = genQueries(rngFor(b.e.seed, 1), b.w, b.e.sz.batches*per, nil)
	if b.bodies, err = encodeBodies(b.w.ds, b.queries, per, false); err != nil {
		return 0, 0, err
	}
	b.want, attempted, failed, err = askAll(b.qconn, b.host.url+"/query/batch", b.oracle, b.queries, b.bodies, per, b.e.sz.probes)
	return attempted, failed, err
}

// probe sends queries through /query/batch and holds every delivered-host
// set against the oracle tables.
func (b *churnBed) probe(qs []query) (attempted, failed int, err error) {
	per := b.e.sz.churnBatch
	bodies, err := encodeBodies(b.oracle, qs, per, false)
	if err != nil {
		return 0, 0, err
	}
	_, attempted, failed, err = askAll(b.qconn, b.host.url+"/query/batch", b.oracle, qs, bodies, per, len(qs))
	return attempted, failed, err
}

func (b *churnBed) slice(d time.Duration, tr *tracer) sliceStat {
	parts := make([]sliceStat, 2)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() { // A: closed-loop queries
		defer wg.Done()
		st, per := &parts[0], b.e.sz.churnBatch
		deadlineLoop(d, 0, 1, func(i int) {
			status, raw, t0, t1, err := b.qconn.call(tr, "client.request", b.host.url+"/query/batch", b.bodies[i%len(b.bodies)], per)
			st.reqs++
			// Answers move with the rules, so only their shape is checked
			// here; recheck holds the final epoch against the oracle.
			if err != nil || status != http.StatusOK || len(raw) < 2 || raw[0] != '[' {
				st.failed++
				return
			}
			st.ops += int64(per)
			if dt := t1.Sub(t0).Nanoseconds(); dt > st.stall {
				st.stall = dt
			}
		})
	}()
	go func() { // B: open-loop updates, timed from the due time
		defer wg.Done()
		st := &parts[1]
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * churnPeriod)
			if due.Sub(start) >= d {
				return
			}
			time.Sleep(time.Until(due))
			ops := make([]churnOp, churnOps)
			reqs := make([]server.RuleDeltaRequest, churnOps)
			for i := range ops {
				ops[i] = b.gen.next()
				reqs[i] = ops[i].wire(b.oracle)
			}
			body, err := json.Marshal(reqs)
			if err != nil {
				st.failed++
				continue
			}
			b.seq++
			status, raw, sent, done, err := b.uconn.call(tr, "client.update", fmt.Sprintf("%s/rules/batch?seq=%d", b.host.url, b.seq), body, churnOps)
			st.reqs++
			st.late = append(st.late, sent.Sub(due).Nanoseconds())
			var ack server.RulesBatchResponse
			if err != nil || status != http.StatusOK || json.Unmarshal(raw, &ack) != nil || !ack.Applied || ack.Seq != b.seq {
				st.failed++
				continue
			}
			for _, op := range ops {
				op.applyTo(b.oracle)
			}
			b.sent = append(b.sent, ops)
			st.lat = append(st.lat, done.Sub(due).Nanoseconds())
		}
	}()
	wg.Wait()
	return mergeStats(parts, time.Since(start))
}

// recheck runs with the update stream quiesced: the server's cursor must
// equal the batches sent, and fresh probes — every second one steered
// into a churned prefix — must agree with the oracle tables.
func (b *churnBed) recheck() (attempted, failed int, err error) {
	status, raw, err := b.qconn.do(http.MethodGet, b.host.url+"/healthz", nil, "")
	var h cluster.Health
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &h) != nil {
		return 0, 0, fmt.Errorf("healthz: status %d: %s: %v", status, raw, err)
	}
	attempted++
	if h.Seq != b.seq {
		failed++
	}
	var churned []rule.Prefix
	for _, ops := range b.sent[max(0, len(b.sent)-64):] {
		for _, op := range ops {
			churned = append(churned, op.prefix)
		}
	}
	a, f, err := b.probe(genQueries(rngFor(b.e.seed, 3), b.w, b.e.sz.probes, churned))
	return attempted + a, failed + f, err
}

// replay drives the query stages, then the sent batches on same-seed
// replicas: ApplyRuleDeltas on a replica classifier, and the LPM-cone
// computation alone on a replica table.
func (b *churnBed) replay(tr *tracer) error {
	per := b.e.sz.churnBatch
	if err := replayQueries(tr, b.w, b.host.srv.Handler, "/query/batch", b.queries, b.bodies, b.want, per, b.e.sz.replays); err != nil {
		return err
	}
	replica, err := apclassifier.New(b.e.internet2(), apclassifier.Options{})
	if err != nil {
		return err
	}
	n := min(b.e.sz.replays, len(b.sent))
	err = tr.stage("apclassifier.delta_apply", n, churnOps, func(i int) error {
		deltas := make([]apclassifier.RuleDelta, len(b.sent[i]))
		for j, op := range b.sent[i] {
			deltas[j] = op.delta()
		}
		return replica.ApplyRuleDeltas(deltas)
	})
	if err != nil {
		return err
	}
	tables := b.e.internet2()
	return tr.stage("rule.cone", n*churnOps, 1, func(i int) error {
		op := b.sent[i/churnOps][i%churnOps]
		t := &tables.Boxes[op.box].Fwd
		if op.add {
			t.AddWithCone(rule.FwdRule{Prefix: op.prefix, Port: op.port})
		} else {
			t.RemoveWithCone(op.prefix)
		}
		return nil
	})
}

// verifyBed is verify_churn: one goroutine looping rule change → fresh
// analyzer → loop check → all-pairs reachability.
type verifyBed struct {
	e      *env
	w      *world
	gen    *opGen
	oracle *netgen.Dataset
	last   churnOp
}

func setupVerify(e *env) (bed, error) {
	w, err := e.build(e.fatTree)
	if err != nil {
		return nil, err
	}
	b := &verifyBed{e: e, w: w, oracle: e.fatTree()}
	e.layers["verify.pairs"] = float64(b.pairs())
	if _, failed, err := b.probe(rngFor(e.seed, 0), 1); err != nil || failed != 0 {
		return nil, fmt.Errorf("first answer disagrees with the oracle (%d failed): %v", failed, err)
	}
	return b, nil
}

func (b *verifyBed) close() {}

// probe draws n (ingress, header) pairs and checks that every host the
// oracle delivers to is in the analyzer's reach set for that header.
func (b *verifyBed) probe(rng *rand.Rand, n int) (attempted, failed int, err error) {
	var churned []rule.Prefix
	if b.last.add {
		churned = []rule.Prefix{b.last.prefix}
	}
	qs := genQueries(rng, b.w, n, churned)
	a := verify.New(b.w.c)
	for _, q := range qs {
		attempted++
		for _, h := range b.oracle.Simulate(q.ingress, q.f).Delivered {
			if !a.ReachSet(q.ingress, h).Contains(q.pkt) {
				failed++
				break
			}
		}
	}
	return attempted, failed, nil
}

func (b *verifyBed) prepare() (attempted, failed int, err error) {
	// keep 0: each add is removed by the next cycle, so the tables return
	// to the generated fabric every second cycle.
	b.gen = newOpGen(rngFor(b.e.seed, 2), b.e.fatTree(), 0)
	return b.probe(rngFor(b.e.seed, 1), b.e.sz.probes/2)
}

func (b *verifyBed) recheck() (attempted, failed int, err error) {
	return b.probe(rngFor(b.e.seed, 3), b.e.sz.probes/2)
}

func (b *verifyBed) pairs() int { return len(b.w.ds.Boxes) * len(b.w.ds.Hosts) }

func (b *verifyBed) slice(d time.Duration, tr *tracer) sliceStat {
	st := sliceStat{}
	c, ds := b.w.c, b.w.ds
	// stage runs fn, as a span of the cycle in the traced run.
	stage := func(name string, root int64, items int, fn func()) {
		if tr != nil {
			tr.timed(name, root, root, items, fn)
		} else {
			fn()
		}
	}
	start := time.Now()
	deadlineLoop(d, 0, 1, func(int) {
		op := b.gen.next()
		root := int64(0)
		if tr != nil {
			root = tr.newID()
		}
		t0 := time.Now()
		var err error
		stage("apclassifier.delta_apply", root, 1, func() { err = c.ApplyRuleDeltas([]apclassifier.RuleDelta{op.delta()}) })
		var a *verify.Analyzer
		stage("verify.new", root, 0, func() { a = verify.New(c) })
		stage("verify.loops", root, 0, func() { a.Loops() })
		reached := 0
		stage("verify.reach", root, b.pairs(), func() {
			for in := range ds.Boxes {
				for _, h := range ds.Hosts {
					if !a.ReachSet(in, h.Name).Empty() {
						reached++
					}
				}
			}
		})
		t1 := time.Now()
		if tr != nil {
			tr.add(root, 0, root, "client.reverify", t0, t1, b.pairs())
		}
		op.applyTo(b.oracle)
		b.last = op
		st.reqs++
		if err != nil || reached == 0 {
			st.failed++
			return
		}
		st.ops += int64(b.pairs())
		st.lat = append(st.lat, t1.Sub(t0).Nanoseconds())
	})
	st.dur = time.Since(start)
	return st
}

// replay has nothing to add: the cycle's stages are calls the benchmark
// makes itself, so the traced slices already hold a span for each.
func (b *verifyBed) replay(*tracer) error { return nil }
