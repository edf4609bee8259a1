// Package tagged checks build-constraint handling in the loader: the
// sibling file is gated behind the apdebug tag and contains a seeded
// errdrop violation, so any finding from this package means the loader
// ignored the constraint.
package tagged

func Touch() error { return nil }

// Touch stays reached, so any finding at all means the tagged file leaked.
var _ = Touch
