package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbic"
	"lbic/internal/runner"
)

// renderGrid runs testGrid on sw and returns its JSON + rendered text, the
// canonical "what the user sees" bytes.
func renderGrid(t *testing.T, sw *Sweep) string {
	t.Helper()
	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.JSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// testGridCells are testGrid's four simulation cells: two stream groups of
// two ports each.
func testGridCells(sw *Sweep) []cell[float64] {
	var cells []cell[float64]
	for _, pat := range []string{"unit-stride", "random"} {
		for _, port := range []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4)} {
			cells = append(cells, sw.simPattern(pat, port))
		}
	}
	return cells
}

// checkMatchesSimulate runs cells through the sweep — where each stream group
// steps as one lane batch — and checks every value against a lone
// lbic.Simulate of the cell's own configuration.
func checkMatchesSimulate(t *testing.T, sw *Sweep, cells []cell[float64]) {
	t.Helper()
	got, err := sweepRun(sw, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		src, err := c.sim.source()
		if err != nil {
			t.Fatal(err)
		}
		res, err := lbic.Simulate(context.Background(), src, c.sim.config(nil))
		if err != nil {
			t.Fatal(err)
		}
		if want := c.sim.pick(&res); got[c.Key] != want {
			t.Errorf("%s: sweep %v, Simulate %v", c.Key, got[c.Key], want)
		}
	}
}

// TestSweepLanedMatchesScalar: every sweep steps its stream groups as lane
// batches; each cell must equal a lone Simulate of its configuration, and
// the rendered grid must not depend on how many cells run at once.
func TestSweepLanedMatchesScalar(t *testing.T) {
	checkMatchesSimulate(t, NewSweep(5_000), testGridCells(NewSweep(5_000)))
	serial := renderGrid(t, NewSweep(5_000))
	sw := NewSweep(5_000)
	sw.Jobs = 4
	if got := renderGrid(t, sw); got != serial {
		t.Errorf("Jobs=4 output differs from serial:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", serial, got)
	}
}

// TestWorkloadMatrixLanedMatchesScalar covers the generator-backed cells:
// lanes share one synthetic stream, and the IPC and conflict views of one
// (generator, port, budget) point come from a single simulation.
func TestWorkloadMatrixLanedMatchesScalar(t *testing.T) {
	sw := testSweep(tinyInsts)
	sw.Spans = lbic.NewRequestTrace()
	var ipc, conf []cell[float64]
	for _, kind := range lbic.GeneratorKinds() {
		for _, port := range workloadPorts() {
			ipc = append(ipc, sw.simGen(kind, port))
			conf = append(conf, sw.simGenConflict(kind, port))
		}
	}
	checkMatchesSimulate(t, sw, ipc)
	checkMatchesSimulate(t, sw, conf)
	var sims int
	for _, sp := range sw.Spans.Snapshot() {
		if strings.HasPrefix(sp.Name, "simulate ") && !strings.HasPrefix(sp.Name, "simulate batch ") {
			sims++
		}
	}
	if sims != len(ipc) {
		t.Errorf("sweep ran %d simulations for %d IPC and %d conflict cells, want %d", sims, len(ipc), len(conf), len(ipc))
	}
}

// TestSweepLanedJournalInterop: cell keys do not depend on batch width, so a
// journal written with the cells batched serves a resume where each cell
// would run alone, and one written by batches of one serves a batched resume.
func TestSweepLanedJournalInterop(t *testing.T) {
	t.Run("laned-then-scalar", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		j := openJournal(t, path, false)
		sw := NewSweep(5_000)
		sw.Journal = j
		first := renderGrid(t, sw)
		closeJournal(t, j, 4)

		j2 := openJournal(t, path, true)
		defer j2.Close()
		sw2 := NewSweep(5_000)
		sw2.Journal = j2
		// Injected cells leave their batches and run alone; sabotaging every
		// cell proves none of them ran rather than being served.
		sw2.InjectPanic = []string{"pat:unit-stride", "pat:random"}
		if second := renderGrid(t, sw2); second != first {
			t.Errorf("resumed output differs:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
		}
		if fails := sw2.Failures(); len(fails) != 0 {
			t.Errorf("resumed pass reran cells: %v", fails)
		}
	})
	t.Run("scalar-then-laned", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		j := openJournal(t, path, false)
		sw := NewSweep(5_000)
		sw.Journal = j
		// One cell per sweepRun: every group is a batch of one.
		for _, c := range testGridCells(sw) {
			if _, err := sweepRun(sw, []cell[float64]{c}); err != nil {
				t.Fatal(err)
			}
		}
		closeJournal(t, j, 4)

		j2 := openJournal(t, path, true)
		defer j2.Close()
		sw2 := NewSweep(5_000)
		sw2.Journal = j2
		sw2.Spans = lbic.NewRequestTrace()
		if got, want := renderGrid(t, sw2), renderGrid(t, NewSweep(5_000)); got != want {
			t.Errorf("resumed output differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", want, got)
		}
		if spans := sw2.Spans.Snapshot(); len(spans) != 0 {
			t.Errorf("resumed pass ran %d spans, want none: first %q", len(spans), spans[0].Name)
		}
	})
}

func openJournal(t *testing.T, path string, resume bool) *runner.Journal {
	t.Helper()
	j, err := runner.OpenJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	if resume && j.Resumed() != 4 {
		t.Fatalf("Resumed() = %d, want 4", j.Resumed())
	}
	return j
}

func closeJournal(t *testing.T, j *runner.Journal, want int) {
	t.Helper()
	if j.Len() != want {
		t.Fatalf("journal has %d cells, want %d", j.Len(), want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepInjectedCellLeavesItsBatch: fault injection targets one cell.
// The injected cell leaves its stream group and fails on its own; the other
// members of the group still run as one batch, which the span tree shows.
func TestSweepInjectedCellLeavesItsBatch(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.KeepGoing = true
	sw.Spans = lbic.NewRequestTrace()
	sw.InjectPanic = []string{"pat:unit-stride/true-1"}
	var cells []cell[float64]
	for _, port := range []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4), lbic.LBICPort(4, 2)} {
		cells = append(cells, sw.simPattern("unit-stride", port))
	}
	got, err := sweepRun(sw, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("%d cells succeeded, want 2: %v", len(got), got)
	}
	fails := sw.Failures()
	if len(fails) != 1 || fails[0].Key != cells[0].Key || !strings.Contains(fails[0].Err.Error(), "injected panic") {
		t.Fatalf("Failures() = %v, want only the injected panic of %s", fails, cells[0].Key)
	}

	spans := sw.Spans.Snapshot()
	if _, err := lbic.ValidateTraceTree(spans, false); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	byID := map[uint64]lbic.TraceSpan{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var batches, sims int
	for _, sp := range spans {
		switch {
		case sp.Name == "cell "+cells[0].Key:
			if sp.Attrs["error"] == nil {
				t.Errorf("injected cell span has no error: %v", sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate batch "):
			batches++
			if sp.Name != "simulate batch unit-stride x2" || byID[sp.Parent].Name != "cell lane/pat/unit-stride/i5000/k2" {
				t.Errorf("batch span %q under %q, want \"simulate batch unit-stride x2\" under the group's runner cell",
					sp.Name, byID[sp.Parent].Name)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			sims++
			if !strings.HasPrefix(byID[sp.Parent].Name, "simulate batch ") || sp.Attrs["cycles"] == nil {
				t.Errorf("simulate span %q (attrs %v) is not a finished lane of the batch", sp.Name, sp.Attrs)
			}
		}
	}
	if batches != 1 || sims != 2 {
		t.Errorf("%d batch and %d simulate spans, want 1 and 2", batches, sims)
	}
}

// TestSweepLanedFailFast: without KeepGoing, a lane failure must surface as
// the same "runner: cell ..." error a lone cell returns, naming the failed
// member cell, not the batch it rode in.
func TestSweepLanedFailFast(t *testing.T) {
	sw := NewSweep(5_000)
	// An unbuildable benchmark fails its whole batch at build time.
	cells := []cell[float64]{
		sw.simBench("no-such-benchmark", lbic.IdealPort(1)),
		sw.simBench("no-such-benchmark", lbic.BankedPort(4)),
	}
	_, err := sweepRun(sw, cells)
	if err == nil {
		t.Fatal("batched run with an unbuildable stream returned nil error")
	}
	if !strings.Contains(err.Error(), "runner: cell ") || !strings.Contains(err.Error(), cells[0].Key) {
		t.Errorf("error %q does not carry the member cell key %q", err, cells[0].Key)
	}
}

// TestSweepRetriedBatchSettlesMembersOnce: a batch whose lane fails is
// retried like that cell alone would be, but every member settles — OnCell,
// journal, memo — exactly once, from the final attempt.
func TestSweepRetriedBatchSettlesMembersOnce(t *testing.T) {
	for _, keepGoing := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		j, err := runner.OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSweep(5_000)
		sw.Retries = 1
		sw.KeepGoing = keepGoing
		sw.Journal = j
		sw.Spans = lbic.NewRequestTrace()
		settled := map[string]int{}
		sw.OnCell = func(key string, err error) { settled[key]++ }
		cells := []cell[float64]{
			sw.simBench("compress", lbic.LBICPort(4, 2)),
			sw.simBench("compress", lbic.BankedPort(4)),
			sw.simBenchMut("compress", lbic.BankedPort(4), "maxc100", func(cfg *lbic.Config) {
				c := lbic.DefaultCPUConfig()
				c.MaxCycles = 100
				cfg.CPU = &c
			}),
		}
		got, err := sweepRun(sw, cells)
		if keepGoing != (err == nil) {
			t.Errorf("keepGoing=%v: sweep error %v", keepGoing, err)
		}
		if len(got) != 2 {
			t.Errorf("keepGoing=%v: %d cells succeeded, want 2", keepGoing, len(got))
		}
		for _, c := range cells {
			if settled[c.Key] != 1 {
				t.Errorf("keepGoing=%v: %s settled %d times, want 1", keepGoing, c.Key, settled[c.Key])
			}
		}
		if fails := sw.Failures(); len(fails) != 1 || fails[0].Key != cells[2].Key {
			t.Errorf("keepGoing=%v: Failures() = %v, want only %s", keepGoing, fails, cells[2].Key)
		}
		if j.Len() != 2 {
			t.Errorf("keepGoing=%v: journal has %d cells, want 2", keepGoing, j.Len())
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(raw, []byte("\n")); lines != 2 {
			t.Errorf("keepGoing=%v: journal file has %d records, want 2", keepGoing, lines)
		}
		// The batch was attempted twice: the failing lane is retried.
		for _, sp := range sw.Spans.Snapshot() {
			if strings.HasPrefix(sp.Name, "cell lane/") && sp.Attrs["attempts"] != 2 {
				t.Errorf("keepGoing=%v: batch cell attempts = %v, want 2", keepGoing, sp.Attrs["attempts"])
			}
		}
	}
}
