package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lbic"
	"lbic/internal/stats"
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
func testGridCells(sw *Sweep) []cell {
	var cells []cell
	for _, pat := range []string{"unit-stride", "random"} {
		for _, port := range []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4)} {
			cells = append(cells, sw.simPattern(pat, port))
		}
	}
	return cells
}

// runCells runs a plan of the given tables of cells and returns the values
// of the cells that succeeded, by key, also when the plan stopped early.
func runCells(sw *Sweep, tables ...[]cell) (map[string]any, error) {
	var p *plan
	_, err := Run(sw, func(sw *Sweep) func() []*stats.Table {
		p = sw.plan
		for _, cells := range tables {
			p.add(cells)
		}
		return func() []*stats.Table { return nil }
	})
	return p.vals, err
}

// checkMatchesSimulate runs cells through a plan — where each stream group
// steps as one lane batch — and checks every value against a lone
// lbic.Simulate of the cell's own configuration.
func checkMatchesSimulate(t *testing.T, sw *Sweep, cells []cell) {
	t.Helper()
	got, err := runCells(sw, cells)
	if err != nil {
		t.Fatal(err)
	}
	matchSimulate(t, got, cells)
}

// matchSimulate checks each cell's value in got against a lone lbic.Simulate
// of the cell's own configuration.
func matchSimulate(t *testing.T, got map[string]any, cells []cell) {
	t.Helper()
	for _, c := range cells {
		src, err := c.sim.source()
		if err != nil {
			t.Fatal(err)
		}
		res, err := lbic.Simulate(context.Background(), src, c.sim.config(nil))
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := got[c.Key]; !ok || v != c.sim.pick(&res) {
			t.Errorf("%s: sweep %v (present %v), Simulate %v", c.Key, v, ok, c.sim.pick(&res))
		}
	}
}

// TestSweepLanedMatchesScalar: every sweep steps its stream groups as lane
// batches; each cell must equal a lone Simulate of its configuration, the
// rendered grid must not depend on how many cells run at once, and a cell's
// key and value must not depend on its batch's width.
func TestSweepLanedMatchesScalar(t *testing.T) {
	checkMatchesSimulate(t, NewSweep(5_000), testGridCells(NewSweep(5_000)))
	serial := renderGrid(t, NewSweep(5_000))
	sw := NewSweep(5_000)
	sw.Jobs = 4
	if got := renderGrid(t, sw); got != serial {
		t.Errorf("Jobs=4 output differs from serial:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", serial, got)
	}

	// One cell per plan: every group is a batch of one, and each cell
	// must come out under the key and with the value the batched sweep gave.
	batched, err := runCells(NewSweep(5_000), testGridCells(NewSweep(5_000)))
	if err != nil {
		t.Fatal(err)
	}
	one := NewSweep(5_000)
	for _, c := range testGridCells(one) {
		got, err := runCells(one, []cell{c})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := batched[c.Key]; !ok || got[c.Key] != v {
			t.Errorf("%s: batch of one %v, batched %v (present %v)", c.Key, got[c.Key], v, ok)
		}
	}
}

// TestWorkloadMatrixLanedMatchesScalar covers the generator-backed cells:
// lanes share one synthetic stream, and the IPC and conflict views of one
// (generator, port, budget) point, in two tables of one plan, come from a
// single simulation.
func TestWorkloadMatrixLanedMatchesScalar(t *testing.T) {
	sw := testSweep(tinyInsts)
	sw.Spans = lbic.NewRequestTrace()
	var ipc, conf []cell
	for _, kind := range lbic.GeneratorKinds() {
		for _, port := range workloadPorts() {
			ipc = append(ipc, sw.simGen(kind, port))
			conf = append(conf, sw.simGenConflict(kind, port))
		}
	}
	got, err := runCells(sw, ipc, conf)
	if err != nil {
		t.Fatal(err)
	}
	matchSimulate(t, got, ipc)
	matchSimulate(t, got, conf)
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

// TestSweepPanickingLaneFailsItsBatch: an arbiter that panics takes down
// its whole lane batch, because the simulator recovers the panic for the
// batch, not per lane. Every member fails with the panic and settles once,
// and the span tree records the one batch under the group's runner cell.
// What lbictables prints of it, a FAIL progress line per member and the
// failure appendix, carries the panic's stack once.
func TestSweepPanickingLaneFailsItsBatch(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.KeepGoing = true
	sw.Spans = lbic.NewRequestTrace()
	settled := map[string]int{}
	var printed strings.Builder
	sw.OnCell = func(key string, err error) {
		settled[key]++
		fmt.Fprintf(&printed, "  FAIL %s: %s\n", key, FirstLine(err))
	}
	var cells []cell
	for _, port := range []lbic.PortConfig{panicPort(), lbic.BankedPort(4), lbic.LBICPort(4, 2)} {
		cells = append(cells, sw.simPattern("unit-stride", port))
	}
	got, err := runCells(sw, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("%d cells succeeded, want none: %v", len(got), got)
	}
	fails := sw.Failures()
	if len(fails) != len(cells) {
		t.Fatalf("Failures() = %v, want all %d cells", fails, len(cells))
	}
	for i, f := range fails {
		if f.Key != cells[i].Key || !strings.Contains(f.Err.Error(), "grant exploded") {
			t.Errorf("failure %d = %s: %v, want %s with the arbiter's panic", i, f.Key, f.Err, cells[i].Key)
		}
		if settled[cells[i].Key] != 1 {
			t.Errorf("%s settled %d times, want 1", cells[i].Key, settled[cells[i].Key])
		}
	}

	spans := sw.Spans.Snapshot()
	if _, err := lbic.ValidateTraceTree(spans, false); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	byID := map[uint64]lbic.TraceSpan{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var runnerCells, batches, sims int
	for _, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "cell "):
			runnerCells++
			if sp.Name != "cell lane/pat/unit-stride/i5000/k3" || sp.Attrs["error"] == nil {
				t.Errorf("runner cell span %q (attrs %v), want the group's batch with an error", sp.Name, sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate batch "):
			batches++
			if sp.Name != "simulate batch unit-stride x3" || byID[sp.Parent].Name != "cell lane/pat/unit-stride/i5000/k3" {
				t.Errorf("batch span %q under %q, want \"simulate batch unit-stride x3\" under the group's runner cell",
					sp.Name, byID[sp.Parent].Name)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			sims++
			if !strings.HasPrefix(byID[sp.Parent].Name, "simulate batch ") || sp.Attrs["error"] == nil {
				t.Errorf("simulate span %q (attrs %v) is not a failed lane of the batch", sp.Name, sp.Attrs)
			}
		}
	}
	if runnerCells != 1 || batches != 1 || sims != 3 {
		t.Errorf("%d runner cell, %d batch and %d simulate spans, want 1, 1 and 3", runnerCells, batches, sims)
	}

	WriteFailures(&printed, fails)
	out := printed.String()
	if n := strings.Count(out, "runtime/debug.Stack"); n != 1 {
		t.Errorf("the panic's stack is printed %d times, want once:\n%s", n, out)
	}
	if n := strings.Count(out, "grant exploded"); n != len(cells)+1 {
		t.Errorf("the panic is named %d times, want once per FAIL line and once in the appendix:\n%s", n, out)
	}
	if !strings.Contains(out, "\n3 cell(s) failed or were skipped:\n") {
		t.Errorf("appendix header missing:\n%s", out)
	}
	for _, c := range cells {
		if !strings.Contains(out, "    cell "+c.Key+"\n") {
			t.Errorf("appendix does not list %s:\n%s", c.Key, out)
		}
	}
}

// TestSweepLanedFailFast: without KeepGoing, a lane failure must surface as
// the same "runner: cell ..." error a lone cell returns, naming the failed
// member cell, not the batch it rode in.
func TestSweepLanedFailFast(t *testing.T) {
	sw := NewSweep(5_000)
	// An unbuildable benchmark fails its whole batch at build time.
	cells := []cell{
		sw.simBench("no-such-benchmark", lbic.IdealPort(1)),
		sw.simBench("no-such-benchmark", lbic.BankedPort(4)),
	}
	_, err := runCells(sw, cells)
	if err == nil {
		t.Fatal("batched run with an unbuildable stream returned nil error")
	}
	if !strings.Contains(err.Error(), "runner: cell ") || !strings.Contains(err.Error(), cells[0].Key) {
		t.Errorf("error %q does not carry the member cell key %q", err, cells[0].Key)
	}
}

// TestSweepFailedLaneSettlesMembersOnce: a lane that fails on its own
// configuration (MaxCycles) fails alone. Its batch-mates succeed and match a
// lone Simulate, and every member settles — OnCell, value, failure log —
// exactly once, from the batch's single run. A second table of the plan that
// shows the same points takes their outcomes from that run: the batch-mates'
// conflict rates, and the failed lane's error, without running it again.
func TestSweepFailedLaneSettlesMembersOnce(t *testing.T) {
	for _, keepGoing := range []bool{false, true} {
		sw := NewSweep(5_000)
		sw.KeepGoing = keepGoing
		sw.Spans = lbic.NewRequestTrace()
		settled := map[string]int{}
		sw.OnCell = func(key string, err error) { settled[key]++ }
		cells := []cell{
			sw.simBench("compress", lbic.LBICPort(4, 2)),
			sw.simBench("compress", lbic.BankedPort(4)),
			sw.simBenchMut("compress", lbic.BankedPort(4), "maxc100", func(cfg *lbic.Config) {
				c := lbic.DefaultCPUConfig()
				c.MaxCycles = 100
				cfg.CPU = &c
			}),
		}
		again := cells[2]
		again.Key += "/again"
		views := []cell{
			sw.simBenchConflict("compress", lbic.LBICPort(4, 2)),
			sw.simBenchConflict("compress", lbic.BankedPort(4)),
			again,
		}
		got, err := runCells(sw, cells, views)
		if keepGoing != (err == nil) || err != nil && !strings.Contains(err.Error(), `"`+cells[2].Key+`"`) {
			t.Errorf("keepGoing=%v: sweep error %v, want one naming %s without KeepGoing", keepGoing, err, cells[2].Key)
		}
		for i, c := range append(append([]cell(nil), cells...), views...) {
			if _, ok := got[c.Key]; ok != (i%3 != 2) {
				t.Errorf("keepGoing=%v: %s has a value = %v, want only the successful points", keepGoing, c.Key, ok)
			}
			if settled[c.Key] != 1 {
				t.Errorf("keepGoing=%v: %s settled %d times, want 1", keepGoing, c.Key, settled[c.Key])
			}
		}
		matchSimulate(t, got, cells[:2])
		matchSimulate(t, got, views[:2])
		if fails := sw.Failures(); len(fails) != 2 || fails[0].Key != cells[2].Key || fails[1].Key != again.Key ||
			fails[0].Err != fails[1].Err {
			t.Errorf("keepGoing=%v: Failures() = %v, want %s and %s with one error", keepGoing, fails, cells[2].Key, again.Key)
		}
		// The batch ran once: one runner cell and one batch span.
		var runnerCells, batches int
		for _, sp := range sw.Spans.Snapshot() {
			switch {
			case strings.HasPrefix(sp.Name, "cell "):
				runnerCells++
			case strings.HasPrefix(sp.Name, "simulate batch "):
				batches++
			}
		}
		if runnerCells != 1 || batches != 1 {
			t.Errorf("keepGoing=%v: %d runner cell and %d batch spans, want 1 and 1", keepGoing, runnerCells, batches)
		}
	}
}
