package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run lbicsim itself: the test binary re-executed with
// LBICSIM_TEST_MAIN=1 is the command.
func TestMain(m *testing.M) {
	if os.Getenv("LBICSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbicsim runs the command from the repository root and returns its stdout,
// stderr and exit status.
func lbicsim(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "LBICSIM_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), status
}

func TestStdoutHasOneWriter(t *testing.T) {
	for _, pair := range [][2]string{
		{"-json -", "-events -"},
		{"-json -", "-pipeline"},
		{"-events -", "-pipeline"},
	} {
		args := []string{"-bench", "li", "-insts", "1000"}
		for _, f := range pair {
			if f == "-pipeline" {
				args = append(args, f, "0:10")
			} else {
				args = append(args, strings.Fields(f)...)
			}
		}
		stdout, stderr, status := lbicsim(t, args...)
		if status != 1 || stdout != "" {
			t.Errorf("%v: exit %d with stdout %.80q, want exit 1 and no output", args, status, stdout)
		}
		if !strings.Contains(stderr, pair[0]) || !strings.Contains(stderr, pair[1]) {
			t.Errorf("%v: error %q does not name %s and %s", args, stderr, pair[0], pair[1])
		}
	}
}

func TestPortTakesRegistryNamesOnly(t *testing.T) {
	_, stderr, status := lbicsim(t, "-port", "lbic", "-insts", "1000")
	if status != 1 || !strings.Contains(stderr, "lbic-4x2") || !strings.Contains(stderr, "coded-4x1") {
		t.Errorf("-port lbic: exit %d, %q; want exit 1 with the registry's examples", status, stderr)
	}
	_, stderr, status = lbicsim(t, "-banks", "4", "-insts", "1000")
	if status != 2 || !strings.Contains(stderr, "not defined: -banks") {
		t.Errorf("-banks: exit %d, %q; want an unknown-flag error", status, stderr)
	}
}

// TestSourcesAreExclusive: a run has one source, so naming two — an
// explicit -bench included — is an error, not a silent pick.
func TestSourcesAreExclusive(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "unit-stride", "-gen", "zipf"},
		{"-bench", "swim", "-pattern", "unit-stride"},
	} {
		stdout, stderr, status := lbicsim(t, append(args, "-insts", "2000")...)
		if status != 1 || stdout != "" || !strings.Contains(stderr, args[0]+", ") || !strings.Contains(stderr, "mutually exclusive") {
			t.Errorf("%v: exit %d, %q; want exit 1 naming %s among exclusive sources", args, status, stderr, args[0])
		}
	}
}

// TestPipelinePrintsBeforeSummary checks the timeline rows are the golden
// bytes, followed by a blank line and the usual summary.
func TestPipelinePrintsBeforeSummary(t *testing.T) {
	want, err := os.ReadFile("../../testdata/pipeline/swim_bank-4_500_40.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, status := lbicsim(t, "-bench", "swim", "-port", "bank-4", "-insts", "20000", "-pipeline", "500:40")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	rows, summary, _ := strings.Cut(stdout, "\n\n")
	if rows+"\n" != string(want) || !strings.HasPrefix(summary, "benchmark:   swim\n") {
		t.Errorf("stdout is not the golden rows then the summary:\n%s", stdout)
	}
}

// TestAsmJSONIsPure checks an assembled program's report is all that
// -json - writes.
func TestAsmJSONIsPure(t *testing.T) {
	stdout, stderr, status := lbicsim(t, "-asm", "examples/asm/saxpy.s", "-port", "lbic-4x2", "-insts", "2000", "-json", "-")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	var report struct{ Benchmark string }
	if err := json.Unmarshal([]byte(stdout), &report); err != nil || report.Benchmark != "saxpy" {
		t.Errorf("stdout is not saxpy's report (%v):\n%.200s", err, stdout)
	}
}
