//go:build !apdebug

package apclassifier

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// debugCheckCacheEpoch is free in release builds; see debug_on.go.
func debugCheckCacheEpoch(*network.BehaviorCache, *aptree.Snapshot) {}

// debugCheckWiring is free in release builds; see debug_on.go.
func (c *Classifier) debugCheckWiring() {}

// debugCheckRederive is free in release builds; see debug_on.go.
func (c *Classifier) debugCheckRederive(*aptree.Tx, *network.Wiring, []int) {}
