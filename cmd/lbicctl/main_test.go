package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"

	"lbic"
	"lbic/client"
	"lbic/internal/server"
)

// TestMain lets a test run lbicctl itself: the test binary re-executed with
// LBICCTL_TEST_MAIN=1 is the command.
func TestMain(m *testing.M) {
	if os.Getenv("LBICCTL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testInsts keeps each served cell to milliseconds.
const testInsts = 2000

// lbicd serves a fresh server on a loopback listener and returns its URL
// and a count of the trace exports it has answered.
func lbicd(t *testing.T) (url string, traceRequests *atomic.Int64) {
	t.Helper()
	srv := server.New(server.Options{})
	h := srv.Handler()
	traceRequests = new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			traceRequests.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL, traceRequests
}

// lbicctl runs the command in dir and returns its stdout, stderr and exit
// status. Its stdout is a pipe, so top prints one line per cell.
func lbicctl(t *testing.T, dir string, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LBICCTL_TEST_MAIN=1")
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

// submit starts a two-cell sweep and returns its job ID.
func submit(t *testing.T, url string, cpu *lbic.CPUConfig) string {
	t.Helper()
	st, err := client.New(url).Sweep(context.Background(), client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("true-2")},
		Insts:      testInsts,
		CPU:        cpu,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func TestTopPrintsOneLinePerCell(t *testing.T) {
	url, _ := lbicd(t)
	stdout, stderr, status := lbicctl(t, t.TempDir(), "top", "-server", url,
		"-bench", "compress,li", "-ports", "true-2,bank-4", "-insts", "2000")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 7 || lines[0] != "submitted job job-1 (4 cells)" {
		t.Fatalf("want the submission, 4 cell lines and 2 summary lines, got:\n%s", stdout)
	}
	for i, l := range lines[1:5] {
		if want := fmt.Sprintf("[%d/4] sim/", i+1); !strings.HasPrefix(l, want) || strings.Contains(l, "FAILED") {
			t.Errorf("cell line %d = %q, want a %q line that did not fail", i+1, l, want)
		}
	}
	if !strings.HasPrefix(lines[5], "job job-1  [") || !strings.Contains(lines[5], " 4/4 done  0 failed") ||
		!strings.HasPrefix(lines[6], "cell latency  p50 ") {
		t.Errorf("summary lines:\n%s\n%s", lines[5], lines[6])
	}
}

func TestTopExitsOneOnFailedCells(t *testing.T) {
	url, _ := lbicd(t)
	cpu := lbic.DefaultCPUConfig()
	cpu.MaxCycles = 100
	id := submit(t, url, &cpu)
	stdout, stderr, status := lbicctl(t, t.TempDir(), "top", "-server", url, "-job", id)
	if status != 1 || !strings.Contains(stderr, "finished with 2 failed cells") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming 2 failed cells", status, stderr)
	}
	var cells int
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "[") {
			cells++
			if !strings.Contains(l, "FAILED") {
				t.Errorf("cell line %q is not marked FAILED", l)
			}
		}
	}
	if cells != 2 {
		t.Errorf("%d cell lines, want 2:\n%s", cells, stdout)
	}
}

func TestTraceJSONLToStdout(t *testing.T) {
	url, _ := lbicd(t)
	id := submit(t, url, nil)
	if _, err := client.New(url).Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, status := lbicctl(t, t.TempDir(), "trace", "-server", url, "-job", id, "-format", "jsonl", "-o", "-")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	h, spans, err := lbic.ReadTraceJSONL(strings.NewReader(stdout))
	if err != nil || h.Name != id || len(spans) == 0 {
		t.Errorf("stdout is not %s's span trace (header %+v, %d spans, %v)", id, h, len(spans), err)
	}
}

// TestTraceRejectsUnknownFormat: a bad -format fails before the trace is
// fetched, so nothing is requested and no file is left behind.
func TestTraceRejectsUnknownFormat(t *testing.T) {
	url, traceRequests := lbicd(t)
	id := submit(t, url, nil)
	dir := t.TempDir()
	_, stderr, status := lbicctl(t, dir, "trace", "-server", url, "-job", id, "-format", "bogus")
	if status != 1 || !strings.Contains(stderr, `unknown -format "bogus"`) {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the format", status, stderr)
	}
	if n := traceRequests.Load(); n != 0 {
		t.Errorf("%d trace requests sent, want none", n)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("files left behind: %v (%v)", entries, err)
	}
}

func TestHealth(t *testing.T) {
	url, _ := lbicd(t)
	stdout, stderr, status := lbicctl(t, t.TempDir(), "health", "-server", url)
	if status != 0 || !strings.HasPrefix(stdout, "status:   ok\n") {
		t.Errorf("exit %d, stdout %q, stderr %q; want status:   ok", status, stdout, stderr)
	}
}
