package cluster_test

import "syscall"

// childAttr asks the kernel to SIGKILL the child when the thread that
// started it dies — in practice, when the test binary does.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
