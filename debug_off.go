//go:build !apdebug

package apclassifier

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// debugCheckWiring is free in release builds; see debug_on.go.
func (c *Classifier) debugCheckWiring() {}

// debugCheckRederive is free in release builds; see debug_on.go.
func (c *Classifier) debugCheckRederive(*aptree.Tx, *network.Wiring, []int) {}
