//go:build !apdebug

package apclassifier

// ruleDeltaApplyOps is TestRuleDeltaWorkIsLocal's exact apply-op count in
// the release build (the apdebug build records its own, sanitizers
// included, in apdebug_test.go).
const ruleDeltaApplyOps = 37739
