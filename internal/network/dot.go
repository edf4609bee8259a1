package network

import (
	"fmt"
	"strings"
)

// DOT renders the topology in Graphviz format: boxes as ellipses, hosts as
// plain boxes, links as undirected edges (drawn once per pair). Useful for
// documenting generated datasets and debugging behavior traces.
func (n *Network) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n  layout=neato;\n", name)
	for i, box := range n.Boxes {
		fmt.Fprintf(&b, "  b%d [label=%q];\n", i, box.Name)
	}
	seen := map[[2]int]bool{}
	hostID := 0
	for i, box := range n.Boxes {
		for pi := range box.Ports {
			p := &box.Ports[pi]
			switch p.Peer.Kind {
			case DestBox:
				a, c := i, p.Peer.Box
				if a > c {
					a, c = c, a
				}
				key := [2]int{a*len(n.Boxes) + c, 0}
				if seen[key] {
					continue
				}
				seen[key] = true
				fmt.Fprintf(&b, "  b%d -- b%d;\n", a, c)
			case DestHost:
				fmt.Fprintf(&b, "  h%d [shape=box,label=%q];\n", hostID, p.Peer.Host)
				fmt.Fprintf(&b, "  b%d -- h%d [style=dotted];\n", i, hostID)
				hostID++
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
