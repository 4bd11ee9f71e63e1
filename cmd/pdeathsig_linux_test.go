package cmd_test

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL cmd's process when the test process
// dies, so a server child cannot outlive a run that panics (a -timeout
// expiry skips every deferred and registered cleanup).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
