// Package bad seeds epochpin violations: a double pin in one walk, a
// live Manager read after pinning, a double raw atomic load, and a
// closure that captures a pinned snapshot yet pins its own epoch.
package bad

import (
	"sync/atomic"

	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
)

type holder struct {
	snap atomic.Pointer[aptree.Snapshot]
}

func doublePin(m *aptree.Manager) (uint64, uint64) {
	a := m.Snapshot()
	b := m.Snapshot() // second epoch mid-walk
	return a.Version(), b.Version()
}

func liveAfterPin(m *aptree.Manager, pkt header.Packet) int {
	s := m.Snapshot()
	leaf, _ := s.Classify(pkt)
	_ = leaf
	return m.NumLive() // answers from the live epoch, not the pinned one
}

func (h *holder) atomicDoubleLoad() bool {
	a := h.snap.Load()
	b := h.snap.Load() // second raw load straddles a concurrent swap
	return a == b
}

func capturedMix(m *aptree.Manager) func() bool {
	s := m.Snapshot()
	return func() bool {
		return m.Snapshot() == s // closure re-pins while holding s
	}
}

func liveTreeAfterDelta(m *aptree.Manager) int {
	before := m.Snapshot()
	m.Update(func(tx *aptree.Tx) {}) // apply a delta batch
	return m.Tree().NumLeaves() - before.Tree().NumLeaves()
}

func deltaLeafDiff(m *aptree.Manager) int {
	a := m.Snapshot()
	m.Update(func(tx *aptree.Tx) {})
	b := m.Snapshot() // second pin to diff the delta's epochs
	return b.Tree().NumLeaves() - a.Tree().NumLeaves()
}

func probeAcrossEpochs(m *aptree.Manager, pkt header.Packet) bool {
	leaf, _ := m.Snapshot().Classify(pkt)
	p := m.Snapshot().ClassifyUncounted(pkt) // re-pins: compares answers across epochs
	return leaf == p
}

// The pre-refactor verify.Analyzer constructor: pin an epoch, then
// assemble the analysis state from the live tree — the mixing the
// snapshot-native Analyzer exists to rule out.
func analyzerBuildFromLiveTree(m *aptree.Manager) (*aptree.Snapshot, int) {
	s := m.Snapshot()
	return s, m.Tree().NumLeaves() // atom views must come from s, not the live tree
}
