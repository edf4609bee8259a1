// Package baseline implements the comparison methods of §VII: APLinear
// (AP Verifier's atoms searched linearly), PScan (scanning every predicate
// per packet), and Forwarding Simulation (per-box linear predicate
// matching, hop by hop). All three identify packet behaviors correctly;
// the experiments show how much slower they are than the AP Tree.
package baseline

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
)

// APLinear classifies packets by scanning atomic-predicate BDDs in order
// until one evaluates true (the paper's APLinear method). Atom BDDs are
// more complex than the original predicates, which is why this is slow.
type APLinear struct {
	D     *bdd.DD
	Atoms *predicate.Atoms
}

// Classify returns the atom index for the packet (-1 never happens for a
// well-formed atom set).
func (a *APLinear) Classify(pkt []byte) int { return a.Atoms.ClassifyLinear(pkt) }

// PScan evaluates every predicate on the packet directly (the paper's
// PScan method), producing the membership vector without atoms at all.
type PScan struct {
	D   *bdd.DD
	IDs []int32   // global predicate IDs
	Ref []bdd.Ref // parallel BDD refs
	// capBits sizes the produced bitsets (max predicate ID + 1).
	CapBits int
}

// NewPScan assembles a PScan from a registry-style ID→ref mapping.
func NewPScan(d *bdd.DD, ids []int32, refs []bdd.Ref, capBits int) *PScan {
	return &PScan{D: d, IDs: ids, Ref: refs, CapBits: capBits}
}

// Member evaluates all predicates on the packet.
func (p *PScan) Member(pkt []byte) predicate.Bitset {
	m := predicate.NewBitset(p.CapBits)
	for i, id := range p.IDs {
		if p.D.EvalBits(p.Ref[i], pkt) {
			m.Set(int(id), true)
		}
	}
	return m
}

// FwdSim is the Forwarding Simulation method: at each box, the packet is
// checked against the box's predicates linearly (BDD evaluation per port)
// to find the output port, then the next box is visited, and so on.
type FwdSim struct {
	D      *bdd.DD
	Net    *network.Network
	Wiring *network.Wiring
	// Ref maps a predicate ID to its BDD.
	Ref func(id int32) bdd.Ref
}

// SimResult mirrors network.Behavior's essentials plus the work metric.
type SimResult struct {
	Delivered []string
	DropBoxes []int
	Looped    bool
	// PredChecks counts BDD evaluations performed — the paper reports
	// 96.8 (Internet2) and 232 (Stanford) predicates checked per packet
	// on average, versus 10.6 / 16.8 for the AP Tree.
	PredChecks int
}

// Behavior computes the packet's forwarding behavior by per-box linear
// predicate evaluation.
func (s *FwdSim) Behavior(ingress int, pkt []byte) SimResult {
	var res SimResult
	visited := make(map[int]bool)
	queue := []int{ingress}
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		if visited[bi] {
			res.Looped = true
			continue
		}
		visited[bi] = true
		box := s.Net.Boxes[bi]

		if in := s.Wiring.InACL(bi); in != network.NoPred {
			res.PredChecks++
			if !s.D.EvalBits(s.Ref(in), pkt) {
				res.DropBoxes = append(res.DropBoxes, bi)
				continue
			}
		}
		forwarded := false
		for pi := range box.Ports {
			port := &box.Ports[pi]
			fwd := s.Wiring.Fwd(bi, pi)
			if fwd == network.NoPred {
				continue
			}
			res.PredChecks++
			if !s.D.EvalBits(s.Ref(fwd), pkt) {
				continue
			}
			if out := s.Wiring.OutACL(bi, pi); out != network.NoPred {
				res.PredChecks++
				if !s.D.EvalBits(s.Ref(out), pkt) {
					res.DropBoxes = append(res.DropBoxes, bi)
					forwarded = true
					continue
				}
			}
			forwarded = true
			switch port.Peer.Kind {
			case network.DestHost:
				res.Delivered = append(res.Delivered, port.Peer.Host)
			case network.DestBox:
				queue = append(queue, port.Peer.Box)
			default:
				res.DropBoxes = append(res.DropBoxes, bi)
			}
		}
		if !forwarded {
			res.DropBoxes = append(res.DropBoxes, bi)
		}
	}
	return res
}

// ManagerEnv builds a FwdSim over a classifier manager and topology,
// wired as of the manager's published epoch. The manager must not change
// (no update, no Reconstruct) while the FwdSim is in use; experiments
// use static classifiers.
func ManagerEnv(m *aptree.Manager, net *network.Network) *FwdSim {
	d := m.DD()
	return &FwdSim{
		D:      d,
		Net:    net,
		Wiring: network.WiringOf(m.Snapshot()),
		Ref:    func(id int32) bdd.Ref { return m.Ref(id) },
	}
}
