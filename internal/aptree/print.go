package aptree

import (
	"fmt"
	"io"
	"strings"
)

// Fprint writes an ASCII rendering of the tree: internal nodes as
// "p<ID>?", true branches first, leaves as "atom <ID> depth=<d>".
// Intended for debugging and documentation of small trees.
func (t *Tree) Fprint(w io.Writer) {
	var walk func(n *Node, prefix string, last bool)
	walk = func(n *Node, prefix string, last bool) {
		connector := "├─"
		childPrefix := prefix + "│ "
		if last {
			connector = "└─"
			childPrefix = prefix + "  "
		}
		if n.IsLeaf() {
			fmt.Fprintf(w, "%s%s atom %d (depth %d)\n", prefix, connector, n.AtomID, n.Depth)
			return
		}
		fmt.Fprintf(w, "%s%s p%d?\n", prefix, connector, n.Pred)
		walk(n.T, childPrefix, false)
		walk(n.F, childPrefix, true)
	}
	if t.root.IsLeaf() {
		fmt.Fprintf(w, "atom %d (depth 0)\n", t.root.AtomID)
		return
	}
	fmt.Fprintf(w, "p%d?\n", t.root.Pred)
	walk(t.root.T, "", false)
	walk(t.root.F, "", true)
}

// String renders the tree via Fprint.
func (t *Tree) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
