//go:build !linux

package cmd_test

import "os/exec"

// dieWithParent is a no-op where the parent-death signal is unavailable;
// the test's cleanup still kills and reaps the child.
func dieWithParent(*exec.Cmd) {}
