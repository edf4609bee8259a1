package trie

import (
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// Sim identifies packet behaviors the Veriflow way: one network-wide trie
// holds every forwarding rule; a query walks the trie once to collect the
// rules matching the destination, then simulates the path box by box from
// the collected rules, checking ACLs against the rule tables. (The
// related-work discussion in the paper notes this approach was shown to be
// slow for behavior identification; the Fig 12 experiment includes it.)
type Sim struct {
	ds    *netgen.Dataset
	trie  Trie
	peers map[[2]int]netgen.Host
}

// NewSim builds the network-wide trie from a dataset.
func NewSim(ds *netgen.Dataset) *Sim {
	s := &Sim{ds: ds, peers: map[[2]int]netgen.Host{}}
	for b := range ds.Boxes {
		for _, r := range ds.Boxes[b].Fwd.Rules {
			s.trie.Insert(b, r)
		}
	}
	for _, l := range ds.Links {
		s.peers[[2]int{l.A, l.PA}] = netgen.Host{Box: l.B, Port: l.PB}
		s.peers[[2]int{l.B, l.PB}] = netgen.Host{Box: l.A, Port: l.PA}
	}
	for _, h := range ds.Hosts {
		s.peers[[2]int{h.Box, h.Port}] = h
	}
	return s
}

// Result is the outcome of a trie-based behavior query.
type Result struct {
	Delivered []string
	DropBoxes []int
	Looped    bool
	// RulesCollected counts trie-matched rules, the per-query work that
	// grows with total rule volume.
	RulesCollected int
}

// Behavior identifies the behavior of a 5-tuple from an ingress box.
func (s *Sim) Behavior(ingress int, f rule.Fields) Result {
	var res Result
	matches := s.trie.Matching(f.Dst)
	res.RulesCollected = len(matches)
	visited := map[int]bool{}
	queue := []int{ingress}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if visited[b] {
			res.Looped = true
			continue
		}
		visited[b] = true
		spec := &s.ds.Boxes[b]
		if spec.InACL != nil && !spec.InACL.Allows(f) {
			res.DropBoxes = append(res.DropBoxes, b)
			continue
		}
		port, ok := LookupBox(matches, b)
		if !ok {
			res.DropBoxes = append(res.DropBoxes, b)
			continue
		}
		if acl := spec.PortACL[port]; acl != nil && !acl.Allows(f) {
			res.DropBoxes = append(res.DropBoxes, b)
			continue
		}
		peer, ok := s.peers[[2]int{b, port}]
		if !ok {
			res.DropBoxes = append(res.DropBoxes, b)
			continue
		}
		if peer.Name != "" {
			res.Delivered = append(res.Delivered, peer.Name)
			continue
		}
		queue = append(queue, peer.Box)
	}
	return res
}
