package apclassifier

import (
	"testing"

	"apclassifier/internal/network"
)

// RuleDeltaProgram exposes the fixed-seed single-rule delta generator to
// the external benchmark package.
var RuleDeltaProgram = ruleDeltaProgram

// NATClassifier exposes the middlebox tests' NAT fixture, with its Type-1
// NAT attached at chicago, to the external test package.
func NATClassifier(t *testing.T) *Classifier {
	f := newNATFixture(t)
	setMiddlebox(t, f.c, f.nat, &network.Middlebox{Name: "nat", Entries: []network.MBEntry{{
		Match: f.match, Type: network.MBDeterministic, Rewrite: f.rewriteTo(f.a),
	}}})
	return f.c
}
