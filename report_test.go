package lbic

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func runLBIC(t *testing.T, bench string, insts uint64, mut func(*Config)) Result {
	t.Helper()
	prog, err := BuildBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Port = LBICPort(4, 2)
	cfg.MaxInsts = insts
	if mut != nil {
		mut(&cfg)
	}
	res, err := Simulate(context.Background(), ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultCPIStackSumsToCycles(t *testing.T) {
	for _, port := range []PortConfig{IdealPort(2), BankedPort(4), LBICPort(4, 2)} {
		t.Run(port.Name(), func(t *testing.T) {
			res := runLBIC(t, "compress", 50_000, func(c *Config) { c.Port = port })
			var total uint64
			for _, b := range res.CPIStack() {
				total += b.Cycles
			}
			if total != res.Cycles {
				t.Errorf("CPI stack sums to %d, want Cycles = %d", total, res.Cycles)
			}
		})
	}
}

func TestReportRoundTrip(t *testing.T) {
	res := runLBIC(t, "compress", 50_000, nil)
	rep := NewReport(res)

	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Port.PeakWidth != 8 || rep.Port.Banks != 4 || rep.Port.LinePorts != 2 {
		t.Errorf("port = %+v", rep.Port)
	}
	var cpi uint64
	for _, b := range rep.CPIStack {
		cpi += b.Cycles
	}
	if cpi != rep.Cycles {
		t.Errorf("report CPI stack sums to %d, want %d", cpi, rep.Cycles)
	}

	find := func(name string) *HistogramSnapshotCheck {
		for i := range rep.Metrics.Histograms {
			if rep.Metrics.Histograms[i].Name == name {
				return &HistogramSnapshotCheck{t, name, rep.Metrics.Histograms[i].Buckets}
			}
		}
		t.Fatalf("report has no histogram %q", name)
		return nil
	}
	find("port.bank_conflicts").NonEmpty()
	find("lbic.combine_width").NonEmpty()
	find("cpu.cpi_stack").SumIs(rep.Cycles)
	find("cpu.grants_per_cycle").SumCountIs(rep.Cycles)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cycles != rep.Cycles || back.IPC != rep.IPC || back.Benchmark != rep.Benchmark {
		t.Errorf("round trip mutated the report: %+v vs %+v", back, rep)
	}
	if len(back.Metrics.Histograms) != len(rep.Metrics.Histograms) {
		t.Errorf("round trip lost histograms: %d vs %d",
			len(back.Metrics.Histograms), len(rep.Metrics.Histograms))
	}
}

// HistogramSnapshotCheck wraps bucket assertions for TestReportRoundTrip.
type HistogramSnapshotCheck struct {
	t       *testing.T
	name    string
	buckets []uint64
}

func (h *HistogramSnapshotCheck) total() uint64 {
	var n uint64
	for _, b := range h.buckets {
		n += b
	}
	return n
}

func (h *HistogramSnapshotCheck) NonEmpty() {
	h.t.Helper()
	if h.total() == 0 {
		h.t.Errorf("histogram %q is empty", h.name)
	}
}

func (h *HistogramSnapshotCheck) SumIs(want uint64) {
	h.t.Helper()
	if got := h.total(); got != want {
		h.t.Errorf("histogram %q sums to %d, want %d", h.name, got, want)
	}
}

// SumCountIs asserts one observation per cycle (the count, not the weighted
// sum).
func (h *HistogramSnapshotCheck) SumCountIs(want uint64) {
	h.t.Helper()
	if got := h.total(); got != want {
		h.t.Errorf("histogram %q holds %d observations, want one per cycle = %d",
			h.name, got, want)
	}
}

func TestReadReportRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestPipelineViewCarriesMetrics(t *testing.T) {
	var buf bytes.Buffer
	res := runLBIC(t, "compress", 20_000, func(cfg *Config) {
		cfg.Pipeline = &PipelineView{W: &buf, Skip: 1 << 40}
	})
	if res.Metrics == nil {
		t.Fatal("viewed run's result has no metrics registry")
	}
	if res.LBIC == nil {
		t.Error("viewed run's result has no LBIC stats")
	}
	if buf.Len() != 0 {
		t.Errorf("view printed although the whole run was skipped:\n%s", buf.String())
	}
}

// collectEvents runs a short deterministic pattern on port and returns its
// event trace as JSONL.
func collectEvents(t *testing.T, port PortConfig) []byte {
	t.Helper()
	prog, err := BuildPattern("same-line-burst")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = 120
	sink := NewJSONLEventSink(&buf)
	cfg.Events = sink
	if _, err := Simulate(context.Background(), ProgramSource(prog), cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventTraceGolden pins the event trace of the same-line burst on the
// leading-request LBIC and on its greedy variant, whose greedy-bypass
// conflicts exercise the line-choice pass.
func TestEventTraceGolden(t *testing.T) {
	greedy := LBICPort(2, 2)
	greedy.Greedy = true
	for _, port := range []PortConfig{LBICPort(2, 2), greedy} {
		t.Run(port.Key(), func(t *testing.T) { checkEventGolden(t, port) })
	}
}

func checkEventGolden(t *testing.T, port PortConfig) {
	got := collectEvents(t, port)
	golden := filepath.Join("testdata", "events_same-line-burst_"+port.Key()+".golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestEventTraceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl := strings.Split(string(got), "\n")
		wl := strings.Split(string(want), "\n")
		line := 0
		for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
			line++
		}
		g, w := "<EOF>", "<EOF>"
		if line < len(gl) {
			g = gl[line]
		}
		if line < len(wl) {
			w = wl[line]
		}
		t.Fatalf("event trace diverges from golden at line %d:\n got: %s\nwant: %s\n(%d vs %d lines; -update to regenerate)",
			line+1, g, w, len(gl), len(wl))
	}

	// Every line must be a valid Event with all fields present.
	for i, line := range bytes.Split(bytes.TrimSpace(got), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		for _, k := range []string{"cycle", "kind", "seq", "bank", "line", "cause"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %d missing field %q: %s", i+1, k, line)
			}
		}
	}
}

func TestEventTraceDeterministic(t *testing.T) {
	a := collectEvents(t, LBICPort(2, 2))
	b := collectEvents(t, LBICPort(2, 2))
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different event traces")
	}
}

// digestSources are the streams TestSampleReportDigests runs every registry
// sample on: two kernels and the same-line burst pattern.
var digestSources = []string{"compress", "swim", "same-line-burst"}

// TestSampleReportDigests pins the whole run report of every portSamples()
// configuration on digestSources at 5,000 instructions: counters, per-bank
// histograms, combining widths and kind-specific stats. Each report is
// hashed (SHA-256) and compared with testdata/report_digests.txt, which only
// -update rewrites.
func TestSampleReportDigests(t *testing.T) {
	var got strings.Builder
	for _, src := range digestSources {
		prog, err := BuildBenchmark(src)
		if err != nil {
			prog, err = BuildPattern(src)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, port := range portSamples() {
			cfg := DefaultConfig()
			cfg.Port, cfg.MaxInsts = port, 5_000
			res, err := Simulate(context.Background(), ProgramSource(prog), cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", src, port.Key(), err)
			}
			var buf bytes.Buffer
			if err := NewReport(res).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", src, port.Key(), sha256.Sum256(buf.Bytes()))
		}
	}
	golden := filepath.Join("testdata", "report_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestSampleReportDigests -update` to create it)", err)
	}
	wl := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wl) || line != wl[i] {
			t.Errorf("report digest line %d = %q, want %q (-update to regenerate)", i+1, line, wl[min(i, len(wl)-1)])
		}
	}
	if g := strings.Count(got.String(), "\n"); g != len(wl)-1 {
		t.Errorf("%d report digests, golden has %d", g, len(wl)-1)
	}
}

// eventCounter counts the conflict and combine events of a run.
type eventCounter struct{ conflicts, combines uint64 }

func (c *eventCounter) Emit(e Event) {
	switch e.Kind {
	case "conflict":
		c.conflicts++
	case "combine":
		c.combines++
	}
}

// TestEventsMatchCounters: every stall and every combine an arbiter counts
// reaches the event trace. For every registry sample on compress, the
// conflict events equal the port.bank_conflicts total, and the combine
// events equal the LBIC's or the coded organization's Combined counter.
func TestEventsMatchCounters(t *testing.T) {
	prog, err := BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, port := range portSamples() {
		t.Run(port.Key(), func(t *testing.T) {
			var n eventCounter
			cfg := DefaultConfig()
			cfg.Port, cfg.MaxInsts, cfg.Events = port, 5_000, &n
			res, err := Simulate(context.Background(), ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := n.conflicts, res.PortConflicts(); got != want {
				t.Errorf("%d conflict events, port.bank_conflicts counts %d", got, want)
			}
			var combined uint64
			switch {
			case res.LBIC != nil:
				combined = res.LBIC.Combined
			case res.Coded != nil:
				combined = res.Coded.Combined
			}
			if n.combines != combined {
				t.Errorf("%d combine events, the counters combined %d", n.combines, combined)
			}
		})
	}
}
