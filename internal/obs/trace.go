package obs

import (
	"sync"
	"time"
)

// QueryTrace records the per-stage breakdown of one end-to-end query:
// how long pinning the snapshot took, the stage-1 AP Tree descent
// (latency, depth reached, nodes visited), and the stage-2 behavior walk
// (latency, hops, outcome counts). The HTTP server records one per
// /query request into its TraceRing, which /debug/trace serves; library
// queries (Classifier.Behavior and BehaviorWith) record none.
type QueryTrace struct {
	Seq      uint64    `json:"seq"`
	Start    time.Time `json:"start"`
	Ingress  int       `json:"ingress"`
	Atom     int       `json:"atom"`
	Depth    int       `json:"depth"`
	Visits   int       `json:"visits"`
	Version  uint64    `json:"version"`
	PinNs    int64     `json:"pin_ns"`
	ClassNs  int64     `json:"classify_ns"`
	WalkNs   int64     `json:"walk_ns"`
	Hops     int       `json:"hops"`
	Delivers int       `json:"deliveries"`
	Drops    int       `json:"drops"`
	Rewrites int       `json:"rewrites"`
}

// TraceRing is a fixed-capacity ring of the most recent query traces.
// It is mutex-guarded: tracing is opt-in diagnostics, not the hot path,
// and a mutex keeps Last trivially consistent.
type TraceRing struct {
	mu sync.Mutex
	//lint:guard mu
	buf []QueryTrace
	//lint:guard mu
	next int
	//lint:guard mu
	seq uint64
	//lint:guard mu
	filled bool
}

// NewTraceRing returns a ring holding the last n traces (n >= 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]QueryTrace, n)}
}

// Record stores t, assigning it the next sequence number, evicting the
// oldest entry when full. It returns the assigned sequence number.
func (r *TraceRing) Record(t QueryTrace) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	t.Seq = r.seq
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	return t.Seq
}

// Len returns how many traces the ring currently holds.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *TraceRing) lenLocked() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Last returns up to n traces, newest first.
func (r *TraceRing) Last(n int) []QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.lenLocked()
	if n > have {
		n = have
	}
	if n <= 0 {
		return nil
	}
	out := make([]QueryTrace, 0, n)
	for i := 1; i <= n; i++ {
		idx := r.next - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
