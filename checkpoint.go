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

// CheckpointSource captures the classifier's published epoch — tree,
// wiring and delta cursor, pinned together — plus a copy of the dataset's
// rule tables into an encodable Source. The rule tables are the writer's,
// so callers must synchronize this call with rule updates (the HTTP
// server takes its read lock around it); the returned Source is
// self-contained, so encoding it afterwards runs concurrently with
// queries and with updates.
func (c *Classifier) CheckpointSource() *checkpoint.Source {
	return &checkpoint.Source{
		Snap:    c.Manager.Snapshot(),
		Dataset: copyRuleTables(c.Dataset),
		Method:  c.Manager.Method(),
	}
}

// copyRuleTables returns a dataset that shares everything immutable with
// ds (layout, links, hosts, installed ACL objects, which updates replace
// and never edit) and owns what ApplyRuleDeltas rewrites in place: each
// box's forwarding table (a remove compacts the rule slice, and every
// edit moves entries of its prefix index) and port-ACL map. The
// checkpoint runner encodes outside the server lock; handing it the live
// tables let a checkpoint taken under churn persist a torn rule table.
func copyRuleTables(ds *netgen.Dataset) *netgen.Dataset {
	cp := *ds
	cp.Boxes = make([]netgen.BoxSpec, len(ds.Boxes))
	for i, b := range ds.Boxes {
		b.Fwd = b.Fwd.Clone()
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
// the restored manager already answers queries, and its epoch carries
// the checkpointed wiring and delta cursor (so sequenced /rules/batch
// deliveries the checkpointed classifier already applied stay
// acknowledged-only). All that remains is rebuilding the stage-2
// topology from the embedded dataset. No predicate is converted, no atom
// computed, no tree built — that asymmetry is the point of warm restart.
func NewFromRestored(res *checkpoint.Restored) (*Classifier, error) {
	ds := res.Dataset
	w := network.WiringOf(res.Manager.Snapshot())
	if w == nil || w.NumBoxes() != len(ds.Boxes) {
		return nil, fmt.Errorf("apclassifier: checkpoint wiring does not cover the dataset's %d boxes", len(ds.Boxes))
	}
	c := &Classifier{
		Layout:  ds.Layout,
		Manager: res.Manager,
		Dataset: ds,
		Net:     network.New(),
	}
	for bi := range ds.Boxes {
		ds.Boxes[bi].Fwd.Index()
		if w.NumPorts(bi) != ds.Boxes[bi].NumPorts {
			return nil, fmt.Errorf("apclassifier: checkpoint wires %d ports on box %q, dataset has %d",
				w.NumPorts(bi), ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)
		}
		c.Net.AddBox(ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)
	}
	c.linkTopology()
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
