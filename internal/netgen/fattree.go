package netgen

import (
	"fmt"
	"math/rand"

	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// FatTreeConfig shapes a three-tier Clos (fat-tree) data center fabric:
// Core core switches at the top, Pods pods below, each pod holding
// AggPerPod aggregation switches fully meshed to EdgePerPod edge switches,
// and HostsPerEdge host ports per edge switch.
//
// Generation is fully deterministic (no RNG): addressing is structural
// (edge switch e in pod p owns 10.p.e.0/24, host i is 10.p.e.(i+1)/32) and
// ECMP-style uplink spreading uses a fixed hash of the routed prefix, so
// the same config always yields the same dataset. This is the scale
// vehicle for the verification engine: the Large preset exceeds 1000
// boxes and 100k forwarding rules.
type FatTreeConfig struct {
	Pods         int
	EdgePerPod   int
	AggPerPod    int
	Core         int // must be a multiple of AggPerPod
	HostsPerEdge int
	// InjectLoop, when set, adds a deliberately broken route pair: the
	// first edge switch and first aggregation switch of pod 0 bounce
	// 10.254.0.0/16 between each other forever. Used to exercise loop
	// enumeration on an otherwise loop-free fabric.
	InjectLoop bool
}

// Fat-tree presets. Boxes = Core + Pods·(AggPerPod + EdgePerPod).
var (
	// FatTreeSmall: 28 boxes, a few hundred rules — CI-sized.
	FatTreeSmall = FatTreeConfig{Pods: 4, EdgePerPod: 4, AggPerPod: 2, Core: 4, HostsPerEdge: 2}
	// FatTreeMid: 104 boxes, ~3k rules — race/soak-sized.
	FatTreeMid = FatTreeConfig{Pods: 8, EdgePerPod: 8, AggPerPod: 4, Core: 8, HostsPerEdge: 2}
	// FatTreeLarge: 1072 boxes, ~218k rules — the paper-scale experiment.
	FatTreeLarge = FatTreeConfig{Pods: 24, EdgePerPod: 36, AggPerPod: 8, Core: 16, HostsPerEdge: 2}
)

// FatTreePreset resolves a preset by name ("small", "mid", "large").
func FatTreePreset(name string) (FatTreeConfig, error) {
	switch name {
	case "small":
		return FatTreeSmall, nil
	case "mid":
		return FatTreeMid, nil
	case "large":
		return FatTreeLarge, nil
	}
	return FatTreeConfig{}, fmt.Errorf("netgen: unknown fat-tree preset %q (small, mid, large)", name)
}

// NumBoxes reports the box count the config will generate.
func (cfg FatTreeConfig) NumBoxes() int {
	return cfg.Core + cfg.Pods*(cfg.AggPerPod+cfg.EdgePerPod)
}

func (cfg FatTreeConfig) validate() {
	switch {
	case cfg.Pods < 1 || cfg.Pods > 250:
		panic("netgen: fat-tree pods out of range")
	case cfg.EdgePerPod < 1 || cfg.EdgePerPod > 250:
		panic("netgen: fat-tree edges-per-pod out of range")
	case cfg.AggPerPod < 1 || cfg.Core < cfg.AggPerPod || cfg.Core%cfg.AggPerPod != 0:
		panic("netgen: fat-tree core count must be a positive multiple of agg-per-pod")
	case cfg.HostsPerEdge < 1 || cfg.HostsPerEdge > 200:
		panic("netgen: fat-tree hosts-per-edge out of range")
	}
}

// fthash spreads prefixes over uplinks deterministically (Knuth
// multiplicative hash — no RNG so the dataset is a pure function of the
// config).
func fthash(v uint32) uint32 {
	return v * 2654435761
}

// FatTree generates the fabric. Box order: cores, then per pod all
// aggregation switches followed by all edge switches.
//
// Routing is the standard hierarchical scheme: edge switches deliver
// their own /24 to host ports, send same-pod /24s and remote-pod /16s up
// a hashed aggregation uplink; aggregation switches carry the full /24
// table (down for their own pod, up a hashed core uplink otherwise);
// cores route each pod /16 down their single link into that pod.
// Unallocated destination space has no route anywhere and blackholes at
// the ingress — useful ground truth for blackhole enumeration.
func FatTree(cfg FatTreeConfig) *Dataset {
	cfg.validate()
	n := cfg.NumBoxes()
	names := make([]string, 0, n)
	for c := 0; c < cfg.Core; c++ {
		names = append(names, fmt.Sprintf("core%02d", c))
	}
	for p := 0; p < cfg.Pods; p++ {
		for a := 0; a < cfg.AggPerPod; a++ {
			names = append(names, fmt.Sprintf("p%02d-agg%02d", p, a))
		}
		for e := 0; e < cfg.EdgePerPod; e++ {
			names = append(names, fmt.Sprintf("p%02d-edge%02d", p, e))
		}
	}
	aggID := func(p, a int) int { return cfg.Core + p*(cfg.AggPerPod+cfg.EdgePerPod) + a }
	edgeID := func(p, e int) int { return cfg.Core + p*(cfg.AggPerPod+cfg.EdgePerPod) + cfg.AggPerPod + e }

	t := newTopology("fattree", header.IPv4Dst, n, names, rand.New(rand.NewSource(0)))

	// Wiring. Aggregation switch a serves the core stripe
	// [a·r, (a+1)·r) with r = Core/AggPerPod, so every core reaches every
	// pod through exactly one aggregation switch.
	r := cfg.Core / cfg.AggPerPod
	for p := 0; p < cfg.Pods; p++ {
		for a := 0; a < cfg.AggPerPod; a++ {
			for c := a * r; c < (a+1)*r; c++ {
				t.link(aggID(p, a), c)
			}
			for e := 0; e < cfg.EdgePerPod; e++ {
				t.link(aggID(p, a), edgeID(p, e))
			}
		}
	}
	// Host ports (named structurally, not via addEdgePorts).
	hostPort := make(map[int][]int, cfg.Pods*cfg.EdgePerPod) // edge box -> ports
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < cfg.EdgePerPod; e++ {
			box := edgeID(p, e)
			for h := 0; h < cfg.HostsPerEdge; h++ {
				port := t.nextPort[box]
				t.nextPort[box]++
				hostPort[box] = append(hostPort[box], port)
				t.ds.Hosts = append(t.ds.Hosts, Host{Box: box, Port: port, Name: fmt.Sprintf("p%02de%02dh%d", p, e, h)})
			}
		}
	}
	t.finish()

	pod16 := func(p int) rule.Prefix { return rule.P(0x0A000000|uint32(p)<<16, 16) }
	edge24 := func(p, e int) rule.Prefix { return rule.P(0x0A000000|uint32(p)<<16|uint32(e)<<8, 24) }
	host32 := func(p, e, h int) rule.Prefix {
		return rule.P(0x0A000000|uint32(p)<<16|uint32(e)<<8|uint32(h+1), 32)
	}

	// Core switches: one /16 per pod, down the stripe link.
	for c := 0; c < cfg.Core; c++ {
		for p := 0; p < cfg.Pods; p++ {
			t.ds.Boxes[c].Fwd.Add(rule.FwdRule{Prefix: pod16(p), Port: t.linkPort[c][aggID(p, c/r)]})
		}
	}
	// Aggregation switches: full /24 table.
	for p := 0; p < cfg.Pods; p++ {
		for a := 0; a < cfg.AggPerPod; a++ {
			box := aggID(p, a)
			for p2 := 0; p2 < cfg.Pods; p2++ {
				for e2 := 0; e2 < cfg.EdgePerPod; e2++ {
					pfx := edge24(p2, e2)
					var port int
					if p2 == p {
						port = t.linkPort[box][edgeID(p, e2)]
					} else {
						core := a*r + int(fthash(pfx.Value)%uint32(r))
						port = t.linkPort[box][core]
					}
					t.ds.Boxes[box].Fwd.Add(rule.FwdRule{Prefix: pfx, Port: port})
				}
			}
		}
	}
	// Edge switches: host /32s, same-pod /24s up, remote /16s up.
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < cfg.EdgePerPod; e++ {
			box := edgeID(p, e)
			for h := 0; h < cfg.HostsPerEdge; h++ {
				t.ds.Boxes[box].Fwd.Add(rule.FwdRule{Prefix: host32(p, e, h), Port: hostPort[box][h]})
			}
			up := func(pfx rule.Prefix) int {
				a := int(fthash(pfx.Value) % uint32(cfg.AggPerPod))
				return t.linkPort[box][aggID(p, a)]
			}
			for e2 := 0; e2 < cfg.EdgePerPod; e2++ {
				if e2 != e {
					pfx := edge24(p, e2)
					t.ds.Boxes[box].Fwd.Add(rule.FwdRule{Prefix: pfx, Port: up(pfx)})
				}
			}
			for p2 := 0; p2 < cfg.Pods; p2++ {
				if p2 != p {
					pfx := pod16(p2)
					t.ds.Boxes[box].Fwd.Add(rule.FwdRule{Prefix: pfx, Port: up(pfx)})
				}
			}
		}
	}

	if cfg.InjectLoop {
		// 10.254.0.0/16 is outside the allocated pod space (pods ≤ 250):
		// edge00 sends it to agg00, agg00 sends it straight back.
		loop := rule.P(0x0AFE0000, 16)
		e0, a0 := edgeID(0, 0), aggID(0, 0)
		t.ds.Boxes[e0].Fwd.Add(rule.FwdRule{Prefix: loop, Port: t.linkPort[e0][a0]})
		t.ds.Boxes[a0].Fwd.Add(rule.FwdRule{Prefix: loop, Port: t.linkPort[a0][e0]})
	}
	return t.ds
}
