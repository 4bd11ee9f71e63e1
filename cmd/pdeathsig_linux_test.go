package cmd_test

import (
	"os/exec"
	"syscall"
	"testing"
)

// dieWithParent has the kernel SIGKILL cmd's process when the test process
// dies, so a server child cannot outlive a run that panics (a -timeout
// expiry skips every deferred and registered cleanup).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// adoptOrphans makes the test process the reaper of its orphaned
// descendants (PR_SET_CHILD_SUBREAPER) until the test ends: a test that
// orphans a server on purpose then reaps it itself, instead of leaving the
// exited process for init to collect.
func adoptOrphans(t *testing.T) {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		t.Fatalf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
	}
	t.Cleanup(func() { syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 0, 0) })
}
