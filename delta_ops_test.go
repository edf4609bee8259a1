//go:build !apdebug

package apclassifier

// ruleDeltaApplyOps is TestRuleDeltaWorkIsLocal's exact apply-op count in
// the release build (the apdebug build records its own, sanitizers
// included, in apdebug_test.go).
const ruleDeltaApplyOps = 37739

// TestNewWorkIsPinned's exact apply-op counts for a build of Internet2
// ×0.1 and of Stanford ×0.05 in the release build.
const (
	newApplyOpsInternet2 = 0
	newApplyOpsStanford  = 386919
)
