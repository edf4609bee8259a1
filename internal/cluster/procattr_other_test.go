//go:build !linux

package cluster_test

import "syscall"

// childAttr has no parent-death signal to offer off Linux; startProc's
// cleanup still covers every exit the test binary survives.
func childAttr() *syscall.SysProcAttr { return nil }
