package experiments

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lbic"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// testGrid is a tiny pattern x port grid that exercises the sweep machinery
// end to end: four cells at a 5k budget, keys
// sim/pat:{unit-stride,random}/{true-1,bank-4}/i5000.
func testGrid(sw *Sweep) (*stats.Table, error) {
	ports := []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4)}
	cols := make([]column, len(ports))
	for i, port := range ports {
		port := port
		cols[i] = column{header: port.Name(), cell: func(pat string) cell[float64] {
			return sw.simPattern(pat, port)
		}}
	}
	return grid(sw, "test grid", []string{"unit-stride", "random"}, cols, stats.FormatIPC, true)
}

// One injected panicking cell and one injected hung cell must cost exactly
// those two cells: the table still renders, bad cells as ERR, and the
// failure log names both.
func TestSweepRendersERRForInjectedFaults(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 4
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond
	sw.InjectPanic = []string{"pat:unit-stride/true-1"}
	sw.InjectHang = []string{"pat:random/bank-4"}

	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, errCell); got != 2 {
		t.Errorf("rendered table has %d ERR cells, want 2:\n%s", got, out)
	}
	// Each column keeps one healthy cell, so the average row stays numeric.
	if strings.Contains(strings.SplitAfter(out, "Average")[1], errCell) {
		t.Errorf("average row has ERR despite surviving cells:\n%s", out)
	}

	fails := sw.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures() = %d entries, want 2: %v", len(fails), fails)
	}
	msgs := map[string]string{}
	for _, f := range fails {
		msgs[f.Key] = f.Err.Error()
	}
	if m := msgs["sim/pat:unit-stride/true-1/i5000"]; !strings.Contains(m, "injected panic") {
		t.Errorf("panic cell error = %q, want injected panic", m)
	}
	if m := msgs["sim/pat:random/bank-4/i5000"]; !strings.Contains(m, "deadline") {
		t.Errorf("hung cell error = %q, want deadline exceeded", m)
	}
}

// A resumed sweep must serve completed cells from the journal and rerun only
// the failed ones. The second pass injects panics into every previously
// successful cell: if any of them reran instead of being served from the
// checkpoint, the table would show ERR.
func TestSweepResumeRerunsOnlyFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	j, err := runner.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweep(5_000)
	sw.KeepGoing = true
	sw.Journal = j
	sw.InjectPanic = []string{"pat:random/bank-4"}
	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), errCell) {
		t.Fatalf("first pass should have one ERR cell:\n%s", sb.String())
	}
	if j.Len() != 3 {
		t.Fatalf("journal has %d cells after first pass, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := runner.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 3 {
		t.Fatalf("Resumed() = %d, want 3", j2.Resumed())
	}
	sw2 := NewSweep(5_000)
	sw2.Journal = j2
	// Sabotage the three checkpointed cells; only the failed one may run.
	sw2.InjectPanic = []string{"pat:unit-stride", "pat:random/true-1"}
	tab2, err := testGrid(sw2)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := tab2.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), errCell) {
		t.Errorf("resumed pass reran checkpointed cells:\n%s", sb.String())
	}
	if fails := sw2.Failures(); len(fails) != 0 {
		t.Errorf("resumed pass failures: %v", fails)
	}
	if j2.Len() != 4 {
		t.Errorf("journal has %d cells after resume, want 4", j2.Len())
	}
}

// The rendered output must be identical whether cells run serially or on
// eight workers: results are keyed, not ordered by completion.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		sw := NewSweep(5_000)
		sw.Jobs = jobs
		tab, err := testGrid(sw)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var sb strings.Builder
		if err := tab.JSON(&sb); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if err := tab.Render(&sb); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("serial and jobs=8 output differ:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// A sweep with Spans set must record every runner cell and its simulate
// children as a validated span tree, including on faulted cells.
func TestSweepSpansRecorded(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond
	sw.InjectPanic = []string{"pat:unit-stride/true-1"}
	sw.Spans = lbic.NewRequestTrace()

	if _, err := testGrid(sw); err != nil {
		t.Fatal(err)
	}
	spans := sw.Spans.Snapshot()
	if _, err := lbic.ValidateTraceTree(spans, false); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	var cells, batches, sims int
	for _, sp := range spans {
		if sp.Open {
			t.Errorf("span %q left open after the sweep", sp.Name)
		}
		switch {
		case strings.HasPrefix(sp.Name, "simulate batch "):
			batches++
		case strings.HasPrefix(sp.Name, "cell "):
			cells++
			if strings.Contains(sp.Name, "pat:unit-stride/true-1") && sp.Attrs["error"] == nil {
				t.Errorf("injected-panic cell span missing error attr: %v", sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			sims++
			if sp.Attrs["cycles"] == nil {
				t.Errorf("simulate span %q missing cycles attr: %v", sp.Name, sp.Attrs)
			}
		}
	}
	// The grid's four cells run as three runner cells: the injected cell
	// alone, unit-stride/bank-4 as a batch of one, and the random row as one
	// batch of two. The panicking cell never reaches Simulate, so it
	// contributes no simulate span.
	if cells != 3 || batches != 1 || sims != 3 {
		t.Errorf("spans = %d cells, %d batches, %d sims; want 3, 1 and 3", cells, batches, sims)
	}
}
