// Package trie implements a Veriflow-style network-wide prefix trie: all
// forwarding rules of all boxes stored in one binary trie over the
// destination address. It is the related-work baseline the paper
// discusses: storing all rules and simulating forwarding per query.
package trie

import (
	"apclassifier/internal/rule"
)

// Entry is one rule in the trie, tagged with its owning box.
type Entry struct {
	Box  int
	Rule rule.FwdRule
}

type node struct {
	children [2]*node
	entries  []Entry // rules whose prefix ends exactly here
}

// Trie is a binary trie over 32-bit destination addresses.
type Trie struct {
	root  node
	count int
}

// Insert adds a forwarding rule of a box.
func (t *Trie) Insert(box int, r rule.FwdRule) {
	n := &t.root
	for i := 0; i < r.Prefix.Length; i++ {
		b := (r.Prefix.Value >> uint(31-i)) & 1
		if n.children[b] == nil {
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	n.entries = append(n.entries, Entry{box, r})
	t.count++
}

// Len reports the number of stored rules.
func (t *Trie) Len() int { return t.count }

// Matching returns every rule (from every box) whose prefix contains ip,
// in root-to-leaf (shortest-prefix-first) order.
func (t *Trie) Matching(ip uint32) []Entry {
	var out []Entry
	n := &t.root
	for i := 0; ; i++ {
		out = append(out, n.entries...)
		if i == 32 {
			return out
		}
		b := (ip >> uint(31-i)) & 1
		if n.children[b] == nil {
			return out
		}
		n = n.children[b]
	}
}

// LookupBox resolves the LPM decision of one box for ip from the trie
// content (first-inserted rule wins length ties, matching rule.FwdTable).
func LookupBox(matches []Entry, box int) (port int, ok bool) {
	best := -1
	for _, e := range matches {
		if e.Box != box {
			continue
		}
		if e.Rule.Prefix.Length > best {
			best = e.Rule.Prefix.Length
			port = e.Rule.Port
		}
	}
	if best < 0 || port == rule.Drop {
		return 0, false
	}
	return port, true
}
