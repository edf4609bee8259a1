//go:build !apdebug

package aptree

// Debug reports whether the apdebug runtime sanitizers are compiled in.
// Build with -tags apdebug to check the leaf partition after every tree
// construction and live predicate insertion.
const Debug = false

func (t *Tree) debugCheckPartition() {}

func (s *Snapshot) debugCheckFlat() {}

func (t *Tree) debugValidateRestore() error { return nil }
