package server

// This file is the /rules/batch firehose: a controller streams batches of
// data-plane deltas (forwarding rules and ACLs) and each request is
// applied as one update transaction — one epoch swap per batch, however
// many deltas it carries. An optional ?seq= cursor makes redelivery
// idempotent: the classifier remembers the last applied sequence number
// (it survives checkpoints), and a batch at or below it is acknowledged
// without being applied, so a controller can replay its log after a
// reconnect or a warm restart without double-applying.

import (
	"fmt"
	"net/http"
	"strconv"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/obs"
	"apclassifier/internal/rule"
)

// Wire names of the delta operations. These are the only values the op
// field accepts — and the only label values apc_delta_ops_total can grow,
// which keeps the vector's cardinality provably bounded.
const (
	opAddFwd     = "add-fwd"
	opRemoveFwd  = "remove-fwd"
	opSetPortACL = "set-port-acl"
	opSetInACL   = "set-in-acl"
)

var (
	mDeltaOps = obs.Default.CounterVec("apc_delta_ops_total",
		"Rule-delta operations applied through the /rules endpoints, by kind.", "op")
	// deltaOpCounters resolves each op's child once at init, so the apply
	// path never takes the CounterVec mutex and every label value is a
	// compile-time constant.
	deltaOpCounters = map[string]*obs.Counter{
		opAddFwd:     mDeltaOps.With(opAddFwd),
		opRemoveFwd:  mDeltaOps.With(opRemoveFwd),
		opSetPortACL: mDeltaOps.With(opSetPortACL),
		opSetInACL:   mDeltaOps.With(opSetInACL),
	}
)

// RuleDeltaRequest is one element of the /rules/batch payload. Which
// fields are read depends on op:
//
//	{"op":"add-fwd","box":"seattle","prefix":"10.0.0.0/8","port":3}
//	{"op":"remove-fwd","box":"seattle","prefix":"10.0.0.0/8"}
//	{"op":"set-port-acl","box":"seattle","port":2,"acl":{...}}
//	{"op":"set-in-acl","box":"seattle","acl":null}
//
// A null (or absent) acl on the set-*-acl ops clears the ACL.
type RuleDeltaRequest struct {
	Op     string   `json:"op"`
	Box    string   `json:"box"`
	Prefix string   `json:"prefix,omitempty"`
	Port   int      `json:"port,omitempty"`
	ACL    *ACLSpec `json:"acl,omitempty"`
}

// ACLSpec is the wire form of a first-match ACL. An absent default means
// deny, matching real-world ACL semantics (rule.ACL's zero Default).
type ACLSpec struct {
	Rules   []ACLRuleSpec `json:"rules"`
	Default string        `json:"default,omitempty"` // "permit" or "deny" (the default)
}

// ACLRuleSpec is one ACL entry. Absent fields match everything.
type ACLRuleSpec struct {
	Src     string     `json:"src,omitempty"`     // IPv4 prefix, e.g. "10.0.0.0/8"
	Dst     string     `json:"dst,omitempty"`     // IPv4 prefix
	SrcPort *[2]uint16 `json:"srcPort,omitempty"` // inclusive [lo, hi]
	DstPort *[2]uint16 `json:"dstPort,omitempty"` // inclusive [lo, hi]
	Proto   *int       `json:"proto,omitempty"`   // 0..255
	Action  string     `json:"action"`            // "permit" or "deny", required
}

// parseAction maps the wire action strings onto rule.Action.
func parseAction(s string) (rule.Action, error) {
	switch s {
	case "permit":
		return rule.Permit, nil
	case "deny":
		return rule.Deny, nil
	}
	return rule.Deny, fmt.Errorf("bad action %q: want \"permit\" or \"deny\"", s)
}

// acl converts the wire spec into a rule.ACL.
func (spec *ACLSpec) acl() (*rule.ACL, error) {
	a := &rule.ACL{Rules: make([]rule.ACLRule, 0, len(spec.Rules))}
	if spec.Default != "" {
		var err error
		if a.Default, err = parseAction(spec.Default); err != nil {
			return nil, fmt.Errorf("default: %w", err)
		}
	}
	for i, rs := range spec.Rules {
		m := rule.MatchAll()
		var err error
		if rs.Src != "" {
			if m.Src, err = netgen.ParsePrefix(rs.Src); err != nil {
				return nil, fmt.Errorf("rule %d: src: %w", i, err)
			}
		}
		if rs.Dst != "" {
			if m.Dst, err = netgen.ParsePrefix(rs.Dst); err != nil {
				return nil, fmt.Errorf("rule %d: dst: %w", i, err)
			}
		}
		if rs.SrcPort != nil {
			if rs.SrcPort[0] > rs.SrcPort[1] {
				return nil, fmt.Errorf("rule %d: srcPort range [%d,%d] inverted", i, rs.SrcPort[0], rs.SrcPort[1])
			}
			m.SrcPort = rule.R(rs.SrcPort[0], rs.SrcPort[1])
		}
		if rs.DstPort != nil {
			if rs.DstPort[0] > rs.DstPort[1] {
				return nil, fmt.Errorf("rule %d: dstPort range [%d,%d] inverted", i, rs.DstPort[0], rs.DstPort[1])
			}
			m.DstPort = rule.R(rs.DstPort[0], rs.DstPort[1])
		}
		if rs.Proto != nil {
			if *rs.Proto < 0 || *rs.Proto > 255 {
				return nil, fmt.Errorf("rule %d: proto %d out of range", i, *rs.Proto)
			}
			m.Proto = *rs.Proto
		}
		action, err := parseAction(rs.Action)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		a.Rules = append(a.Rules, rule.ACLRule{Match: m, Action: action})
	}
	return a, nil
}

// convertDelta resolves one wire delta against the topology. The returned
// status is 0 on success, or the HTTP status the element should fail the
// whole batch with (unknown boxes are 404, everything else 400).
func (s *Server) convertDelta(rq RuleDeltaRequest) (apclassifier.RuleDelta, int, error) {
	box := s.c.Net.BoxByName(rq.Box)
	if box < 0 {
		return apclassifier.RuleDelta{}, http.StatusNotFound, fmt.Errorf("unknown box %q", rq.Box)
	}
	dl := apclassifier.RuleDelta{Box: box}
	switch rq.Op {
	case opAddFwd:
		p, err := netgen.ParsePrefix(rq.Prefix)
		if err != nil {
			return dl, http.StatusBadRequest, fmt.Errorf("prefix: %w", err)
		}
		dl.Op = apclassifier.OpAddFwdRule
		dl.Rule = rule.FwdRule{Prefix: p, Port: rq.Port}
	case opRemoveFwd:
		p, err := netgen.ParsePrefix(rq.Prefix)
		if err != nil {
			return dl, http.StatusBadRequest, fmt.Errorf("prefix: %w", err)
		}
		dl.Op = apclassifier.OpRemoveFwdRule
		dl.Prefix = p
	case opSetPortACL, opSetInACL:
		if rq.Op == opSetPortACL {
			dl.Op = apclassifier.OpSetPortACL
			dl.Port = rq.Port
		} else {
			dl.Op = apclassifier.OpSetInACL
		}
		if rq.ACL != nil {
			acl, err := rq.ACL.acl()
			if err != nil {
				return dl, http.StatusBadRequest, fmt.Errorf("acl: %w", err)
			}
			dl.ACL = acl
		}
	default:
		return dl, http.StatusBadRequest,
			fmt.Errorf("unknown op %q: want %q, %q, %q or %q",
				rq.Op, opAddFwd, opRemoveFwd, opSetPortACL, opSetInACL)
	}
	return dl, 0, nil
}

// RulesBatchResponse is the /rules/batch result. Applied is false when the
// request carried a sequence number at or below the last applied one — the
// batch was acknowledged but not re-applied. Seq echoes the classifier's
// cursor after the request. TreeVersion is the reconstruction epoch (as in
// /stats): delta batches splice the live tree in place of rebuilding it,
// so the number does not advance per batch — only a Reconstruct bumps it.
type RulesBatchResponse struct {
	Applied     bool   `json:"applied"`
	Count       int    `json:"count"`
	Seq         uint64 `json:"seq"`
	TreeVersion uint64 `json:"treeVersion"`
}

// handleRulesBatch applies a JSON array of rule deltas as one update
// transaction. Like /query/batch the array is bounded by maxBatch (413
// above it), the whole batch is validated before anything is touched, and
// a bad element is reported with its index. Queries racing the request see
// either the pre-batch or the post-batch epoch, never a partial batch.
func (s *Server) handleRulesBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []RuleDeltaRequest
	if !s.decodeBody(w, r, maxBatchBody, &reqs) {
		return
	}
	if len(reqs) > maxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds the %d-delta limit; split the stream", len(reqs), maxBatch)
		return
	}
	var seq uint64
	if q := r.URL.Query().Get("seq"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil || v == 0 {
			writeErr(w, http.StatusBadRequest, "bad seq %q: want a positive integer", q)
			return
		}
		seq = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	applied, ok := s.applyDeltas(w, seq, reqs)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, RulesBatchResponse{
		Applied:     applied,
		Count:       len(reqs),
		Seq:         s.c.DeltaSeq(),
		TreeVersion: s.c.Manager.Version(),
	})
}

// applyDeltas resolves wire deltas against the topology and applies them
// as one update transaction. The caller holds s.mu. When ok is false the
// error response has already been written and nothing was applied.
func (s *Server) applyDeltas(w http.ResponseWriter, seq uint64, reqs []RuleDeltaRequest) (applied, ok bool) {
	deltas := make([]apclassifier.RuleDelta, len(reqs))
	for i, rq := range reqs {
		dl, status, err := s.convertDelta(rq)
		if status != 0 {
			writeErr(w, status, "delta %d: %v", i, err)
			return false, false
		}
		deltas[i] = dl
	}
	applied, err := s.c.ApplyRuleDeltasSeq(seq, deltas)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return false, false
	}
	if applied {
		for i := range reqs {
			deltaOpCounters[reqs[i].Op].Inc()
		}
	}
	return applied, true
}
