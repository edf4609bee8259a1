package apclassifier

import (
	"fmt"

	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// This file is the facade's warm-restart surface: capturing a running
// classifier into a checkpoint.Source, and rebuilding a Classifier from
// a decoded checkpoint without touching raw rules. The expensive work a
// cold New performs — predicate conversion, atomic-predicate
// computation, AP Tree construction — is exactly what the checkpoint
// already holds, so NewFromRestored only rewires the topology around
// the restored manager.

// CheckpointSource captures the classifier's published epoch plus the
// dataset and topology wiring into an encodable Source. Callers must
// synchronize this call with rule updates exactly as Behavior's
// contract requires (the HTTP server takes its read lock around it);
// the returned Source is self-contained — the snapshot pins the
// classifier state and the rule tables are copied here — so encoding it
// afterwards runs concurrently with queries and with updates.
func (c *Classifier) CheckpointSource() *checkpoint.Source {
	wiring := make([]checkpoint.BoxWiring, len(c.Net.Boxes))
	for b, box := range c.Net.Boxes {
		w := checkpoint.BoxWiring{
			InACL:  box.InACL,
			Fwd:    make([]int32, len(box.Ports)),
			OutACL: make([]int32, len(box.Ports)),
		}
		for p := range box.Ports {
			w.Fwd[p] = box.Ports[p].Fwd
			w.OutACL[p] = box.Ports[p].OutACL
		}
		wiring[b] = w
	}
	return &checkpoint.Source{
		Snap:     c.Manager.Snapshot(),
		Dataset:  copyRuleTables(c.Dataset),
		Method:   c.Manager.Method(),
		Wiring:   wiring,
		DeltaSeq: c.deltaSeq.Load(),
	}
}

// copyRuleTables returns a dataset that shares everything immutable with
// ds (layout, links, hosts, installed ACL objects, which updates replace
// and never edit) and owns what ApplyRuleDeltas rewrites in place: each
// box's rule slice (FwdTable.Remove compacts it) and port-ACL map. The
// checkpoint runner encodes outside the server lock; handing it the live
// tables let a checkpoint taken under churn persist a torn rule table.
func copyRuleTables(ds *netgen.Dataset) *netgen.Dataset {
	cp := *ds
	cp.Boxes = make([]netgen.BoxSpec, len(ds.Boxes))
	for i, b := range ds.Boxes {
		b.Fwd.Rules = append([]rule.FwdRule(nil), b.Fwd.Rules...)
		acls := make(map[int]*rule.ACL, len(b.PortACL))
		for port, acl := range b.PortACL {
			acls[port] = acl
		}
		b.PortACL = acls
		cp.Boxes[i] = b
	}
	return &cp
}

// NewFromRestored assembles a Classifier around a decoded checkpoint:
// the restored manager already answers queries, so all that remains is
// rebuilding the stage-2 topology from the embedded dataset and binding
// the checkpointed predicate IDs to it. No predicate is converted, no
// atom computed, no tree built — that asymmetry is the point of warm
// restart.
func NewFromRestored(res *checkpoint.Restored) (*Classifier, error) {
	ds := res.Dataset
	if len(res.Wiring) != len(ds.Boxes) {
		return nil, fmt.Errorf("apclassifier: checkpoint wires %d boxes, dataset has %d", len(res.Wiring), len(ds.Boxes))
	}
	c := &Classifier{
		Layout:  ds.Layout,
		Manager: res.Manager,
		Dataset: ds,
	}
	c.Net = network.New()
	c.PortPred = make([][]int32, len(ds.Boxes))
	for bi := range ds.Boxes {
		c.Net.AddBox(ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)
		w := res.Wiring[bi]
		if len(w.Fwd) != ds.Boxes[bi].NumPorts {
			return nil, fmt.Errorf("apclassifier: checkpoint wires %d ports on box %q, dataset has %d",
				len(w.Fwd), ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)
		}
		c.Net.Boxes[bi].InACL = w.InACL
		c.PortPred[bi] = append([]int32(nil), w.Fwd...)
		for pi := 0; pi < ds.Boxes[bi].NumPorts; pi++ {
			c.Net.Boxes[bi].Ports[pi].Fwd = w.Fwd[pi]
			c.Net.Boxes[bi].Ports[pi].OutACL = w.OutACL[pi]
		}
	}
	for _, l := range ds.Links {
		c.Net.Link(l.A, l.PA, l.B, l.PB)
	}
	for _, h := range ds.Hosts {
		c.Net.AttachHost(h.Box, h.Port, h.Name)
	}
	c.env = &network.Env{Source: c.Manager}
	// Resume the firehose cursor: sequenced /rules/batch deliveries the
	// checkpointed classifier already applied stay acknowledged-only.
	c.deltaSeq.Store(res.DeltaSeq)
	c.debugCheckWiring()
	return c, nil
}

// RestoreFile is the one-call warm restart: decode a checkpoint file
// and assemble the classifier around it.
//
//lint:ignore unreached warm-restart entry the root checkpoint suite and the server checkpoint tests restore through
func RestoreFile(path string) (*Classifier, error) {
	res, err := checkpoint.RestoreFile(path)
	if err != nil {
		return nil, err
	}
	return NewFromRestored(res)
}

// RestoreDir warm-restarts from the newest intact checkpoint in a
// managed directory, falling back past corrupt entries.
func RestoreDir(dir *checkpoint.Dir) (*Classifier, error) {
	res, err := dir.Restore()
	if err != nil {
		return nil, err
	}
	return NewFromRestored(res)
}
