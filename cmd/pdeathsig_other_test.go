//go:build !linux

package cmd_test

import (
	"os/exec"
	"testing"
)

// dieWithParent is a no-op where the parent-death signal is unavailable;
// the test's cleanup still kills and reaps the child.
func dieWithParent(*exec.Cmd) {}

// adoptOrphans is a no-op where no process can adopt its orphaned
// descendants; init reaps them.
func adoptOrphans(*testing.T) {}
