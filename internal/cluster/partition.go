// Package cluster scales the classifier horizontally: a fleet of
// apserver worker processes, each owning one slice of a deterministic
// header-space partition, behind a thin stateless fan-out router
// (cmd/aprouter). The partition function lives here so the router (which
// picks a shard per query) and the workers (which refuse queries outside
// their slice) can never disagree about ownership.
//
// Two partition modes exist:
//
//   - ModeHeader hashes the packet's 5-tuple key fields. Every point of
//     header space is owned by exactly one shard, so a query stream is
//     spread near-uniformly however skewed its ingress distribution is.
//     This is the default.
//   - ModeIngress hashes the ingress box name. All queries entering the
//     network at one box land on one shard, which keeps that shard's
//     per-epoch behavior cache perfectly warm for its boxes — the right
//     trade when the query stream is ingress-local (e.g. per-PoP taps).
//
// Rule state is deliberately replicated, not partitioned: stage 2
// computes *network-wide* behavior, so any walk can traverse any box,
// and every worker must hold the full topology and predicate set. What
// the partition divides is the query load and the per-epoch working set
// (behavior-cache entries, visit counters, tree-node cache lines) — the
// resources that bound a single box's throughput. /rules/batch churn is
// replicated to all shards by the router, and each shard's idempotency
// cursor (?seq=, PR 7) makes the replication converge even across
// worker restarts.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"apclassifier/internal/rule"
)

// Mode selects the partition function.
type Mode int

// Partition modes.
const (
	// ModeHeader partitions by a hash of the 5-tuple key fields.
	ModeHeader Mode = iota
	// ModeIngress partitions by a hash of the ingress box name.
	ModeIngress
)

func (m Mode) String() string {
	switch m {
	case ModeHeader:
		return "header"
	case ModeIngress:
		return "ingress"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses "header" or "ingress".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "header":
		return ModeHeader, nil
	case "ingress":
		return ModeIngress, nil
	}
	return ModeHeader, fmt.Errorf("cluster: unknown partition mode %q: want \"header\" or \"ingress\"", s)
}

// Partition is one worker's slice of the header space: shard Index of
// Total under Mode. The zero value (Total == 0) is the unsharded
// single-process configuration, which owns everything.
type Partition struct {
	Mode  Mode
	Index int
	Total int
}

// ParseShard parses a "k/N" shard spec (0 ≤ k < N).
func ParseShard(spec string, mode Mode) (Partition, error) {
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Partition{}, fmt.Errorf("cluster: bad shard spec %q: want \"k/N\"", spec)
	}
	idx, err1 := strconv.Atoi(k)
	total, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil || total < 1 || idx < 0 || idx >= total {
		return Partition{}, fmt.Errorf("cluster: bad shard spec %q: want 0 <= k < N", spec)
	}
	return Partition{Mode: mode, Index: idx, Total: total}, nil
}

// Enabled reports whether the partition actually restricts ownership.
func (p Partition) Enabled() bool { return p.Total > 1 }

func (p Partition) String() string {
	if p.Total == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", p.Index, p.Total)
}

// Shard returns the owning shard index for a query, in [0, Total).
func (p Partition) Shard(ingress string, f rule.Fields) int {
	return ShardOf(p.Mode, p.Total, ingress, f)
}

// Owns reports whether this partition's worker serves the query.
func (p Partition) Owns(ingress string, f rule.Fields) bool {
	return !p.Enabled() || p.Shard(ingress, f) == p.Index
}

// ShardOf is the partition function itself: the shard index owning a
// query under mode with total shards. total < 2 always maps to 0.
func ShardOf(mode Mode, total int, ingress string, f rule.Fields) int {
	if total < 2 {
		return 0
	}
	var h uint64
	if mode == ModeIngress {
		h = hashString(ingress)
	} else {
		h = hashFields(f)
	}
	return int(h % uint64(total))
}

// FNV-1a 64-bit, inlined so the hot router path allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashFields hashes the canonical big-endian encoding of the 5-tuple
// key fields. The encoding is fixed wire contract: changing it
// repartitions a live fleet, so it may only change with a rolling
// restart of every worker and router together.
func hashFields(f rule.Fields) uint64 {
	h := uint64(fnvOffset)
	for _, b := range [13]byte{
		byte(f.Dst >> 24), byte(f.Dst >> 16), byte(f.Dst >> 8), byte(f.Dst),
		byte(f.Src >> 24), byte(f.Src >> 16), byte(f.Src >> 8), byte(f.Src),
		byte(f.SrcPort >> 8), byte(f.SrcPort),
		byte(f.DstPort >> 8), byte(f.DstPort),
		f.Proto,
	} {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// ParseIPv4 parses a dotted quad into its 32-bit value. It is the one
// address parser the router and the workers share — the shard function
// hashes the parsed value, so a parser disagreement would misdirect
// queries.
func ParseIPv4(s string) (uint32, error) {
	var v uint32
	rest := s
	for i := 0; i < 4; i++ {
		part := rest
		if i < 3 {
			var ok bool
			if part, rest, ok = strings.Cut(rest, "."); !ok {
				return 0, fmt.Errorf("bad IPv4 address %q", s)
			}
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("bad IPv4 address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}
