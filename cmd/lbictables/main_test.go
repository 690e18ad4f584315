package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run lbictables itself: the test binary re-executed
// with LBICTABLES_TEST_MAIN=1 is the command.
func TestMain(m *testing.M) {
	if os.Getenv("LBICTABLES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbictables runs the command and returns its stderr and exit status.
func lbictables(t *testing.T, args ...string) (stderr string, status int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "LBICTABLES_TEST_MAIN=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return errOut.String(), status
}

// TestAblationBudget: the ablations run at their own 300k budget unless
// -insts is given, even when it is given at the tables' default of 1M. A
// 1ns -timeout fails the first cell before it streams an instruction, and
// the fail-fast error names the cell, whose key carries the budget.
func TestAblationBudget(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "/i300000"},
		{[]string{"-insts", "1000000"}, "/i1000000"},
		{[]string{"-insts", "2000"}, "/i2000"},
	} {
		args := append([]string{"-ablations", "-timeout", "1ns", "-jobs", "1", "-q"}, tc.args...)
		stderr, status := lbictables(t, args...)
		if status != 1 || !strings.Contains(stderr, "deadline exceeded") || !strings.Contains(stderr, tc.want+`"`) {
			t.Errorf("%v: exit %d, %q; want exit 1 naming a cell at %s", tc.args, status, stderr, tc.want)
		}
	}
}

// TestQuietIsQuiet: -q silences every progress line, so a sweep without
// failures writes nothing to stderr.
func TestQuietIsQuiet(t *testing.T) {
	stderr, status := lbictables(t, "-table", "2", "-insts", "2000", "-jobs", "1", "-q")
	if status != 0 || stderr != "" {
		t.Errorf("exit %d, stderr %q; want exit 0 and no stderr", status, stderr)
	}
}
