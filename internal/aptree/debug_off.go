//go:build !apdebug

package aptree

// Debug reports whether the apdebug runtime sanitizers are compiled in.
// Build with -tags apdebug to check the leaf partition after every tree
// construction and live predicate update, and every leaf's membership bit
// for the updated predicate.
const Debug = false

func (t *Tree) debugCheckPartition() {}

func (t *Tree) debugCheckMember(int32) {}

func (t *Tree) debugValidateRestore() error { return nil }
