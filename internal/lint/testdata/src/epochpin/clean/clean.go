// Package clean holds epoch-correct patterns epochpin must accept: one
// pin answering the whole walk, sibling closures each pinning their own
// epoch per call (the RegisterMetrics pattern), live reads with no pin
// in scope, and a closure that only reads its captured snapshot.
package clean

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
)

func pinnedWalk(m *aptree.Manager, pkt header.Packet) (int, uint64) {
	s := m.Snapshot()
	leaf, ver := s.Classify(pkt)
	_ = leaf
	return s.NumLive(), ver
}

func independentClosures(m *aptree.Manager) []func() int {
	return []func() int{
		func() int { return m.Snapshot().NumLive() },
		func() int { return m.Snapshot().Tree().NumLeaves() },
	}
}

func liveOnly(m *aptree.Manager) (uint64, int) {
	return m.Version(), m.NumLive()
}

func capturedReadOnly(m *aptree.Manager) func() uint64 {
	s := m.Snapshot()
	return func() uint64 { return s.Version() }
}

// The delta-engine idiom: apply the batch, then pin the epoch it
// published — stats and leaf counts all answer from that one snapshot.
func deltaThenPin(m *aptree.Manager) (int, uint64) {
	m.Update(func(tx *aptree.Tx) {})
	s := m.Snapshot()
	return s.Tree().NumLeaves(), s.Version()
}

// The probing idiom: one pin serves both searches, so a differential
// probe compares the counted and the uncounted answer of the same epoch
// — never across a concurrent publish.
func probeOnePin(m *aptree.Manager, pkt header.Packet) bool {
	s := m.Snapshot()
	leaf, _ := s.Classify(pkt)
	return s.ClassifyUncounted(pkt) == leaf
}

// The snapshot-native verify idiom: one pin supplies the epoch, the atom
// view, and every answer derived from them.
func analyzerBuildPinned(m *aptree.Manager) (uint64, int) {
	s := m.Snapshot()
	return s.Version(), s.Atoms().N()
}
