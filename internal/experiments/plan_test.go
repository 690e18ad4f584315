package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbic"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// spanCounts tallies a plan's spans: runner cells, lane batches and lanes.
// It fails the test when two batches of one source overlap in time, which
// is what the benchmark's span ledger assumes never happens.
func spanCounts(t *testing.T, spans []lbic.TraceSpan) (cells, batches, lanes int) {
	t.Helper()
	bySrc := map[string][]lbic.TraceSpan{}
	for _, sp := range spans {
		switch f := strings.Fields(sp.Name); {
		case f[0] == "cell":
			cells++
		case len(f) == 4 && f[0] == "simulate" && f[1] == "batch":
			batches++
			for _, o := range bySrc[f[2]] {
				if sp.StartNS < o.StartNS+o.DurNS && o.StartNS < sp.StartNS+sp.DurNS {
					t.Errorf("batches %q and %q of one source overlap", o.Name, sp.Name)
				}
			}
			bySrc[f[2]] = append(bySrc[f[2]], sp)
		case len(f) == 2 && f[0] == "simulate":
			lanes++
		}
	}
	return cells, batches, lanes
}

// tableColumn returns the named column of a rendered table.
func tableColumn(t *testing.T, tab *stats.Table, header string) []string {
	t.Helper()
	for i, h := range tab.Headers {
		if h == header {
			var col []string
			for _, row := range tab.Rows {
				col = append(col, row[i])
			}
			return col
		}
	}
	t.Fatalf("table %q has no column %q", tab.Title, header)
	return nil
}

// TestPlanRunsSharedPointsOnce: the simulation tables of lbictables -all as
// one plan. A point two tables show runs once: the coded table's bank-4 and
// lbic-4x2 columns are Table 3's Bank-4 and Table 4's 4x2, and the
// generator conflict table is the IPC table's simulations. Each table still
// batches its own streams, and on four workers no two batches of one stream
// overlap.
func TestPlanRunsSharedPointsOnce(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 4
	sw.Spans = lbic.NewRequestTrace()
	tables, err := Run(sw, Table3Part, Table4Part, CodedPart, WorkloadPart)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("%d tables, want 5", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			for _, v := range row {
				if v == errCell {
					t.Errorf("%q has an ERR cell", tab.Title)
				}
			}
		}
	}
	cells, batches, lanes := spanCounts(t, sw.Spans.Snapshot())
	// Table 3: 10 batches of 13; Table 4: 10 of 6; coded: 10 of the 4 points
	// not in Tables 3 and 4; generators: 5 of 8, shared by both matrices.
	if cells != 35 || batches != 35 || lanes != 130+60+40+40 {
		t.Errorf("%d runner cells, %d batches, %d lanes; want 35, 35 and 270", cells, batches, lanes)
	}
	coded := tables[2]
	for _, c := range []struct {
		from   *stats.Table
		header string
		coded  string
	}{{tables[0], "Bank-4", "bank-4"}, {tables[1], "4x2", "lbic-4x2"}} {
		if got, want := tableColumn(t, coded, c.coded), tableColumn(t, c.from, c.header); len(got) != 11 ||
			strings.Join(got[:5], " ") != strings.Join(want[:5], " ") || strings.Join(got[5:10], " ") != strings.Join(want[6:11], " ") {
			t.Errorf("coded %s column %v, want %q's %s column %v", c.coded, got, c.from.Title, c.header, want)
		}
	}
}

// TestPlanNeverOverlapsAStream: two tables each batch unit-stride, and their
// batches come first in launch order. On two workers the second waits for
// the first, while the third table's batch of another stream runs.
func TestPlanNeverOverlapsAStream(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.Spans = lbic.NewRequestTrace()
	table := func(pat string, ports ...lbic.PortConfig) func(*Sweep) func() *stats.Table {
		return func(sw *Sweep) func() *stats.Table {
			cols := make([]column, len(ports))
			for i, port := range ports {
				cols[i] = column{header: port.Name(), cell: func(pat string) cell { return sw.simPattern(pat, port) }}
			}
			return grid(sw, pat, []string{pat}, cols, stats.FormatIPC, false)
		}
	}
	if _, err := Run(sw, tablesOf(
		table("unit-stride", lbic.IdealPort(1), lbic.BankedPort(4)),
		table("unit-stride", lbic.LBICPort(2, 2), lbic.LBICPort(4, 2)),
		table("random", lbic.IdealPort(1), lbic.BankedPort(4)),
	)); err != nil {
		t.Fatal(err)
	}
	spans := sw.Spans.Snapshot()
	if cells, batches, _ := spanCounts(t, spans); cells != 3 || batches != 3 {
		t.Errorf("%d runner cells and %d batches, want 3 and 3", cells, batches)
	}
	start := map[string]int64{}
	for _, sp := range spans {
		start[sp.Name] = sp.StartNS
	}
	second, ok2 := start["cell lane/pat/unit-stride/i5000/k2#2"]
	other, ok := start["cell lane/pat/random/i5000/k2"]
	if !ok || !ok2 || other >= second {
		t.Errorf("the other stream's batch started at %v, the second unit-stride batch at %v; want the other first",
			other, second)
	}
}

// TestPlanUnitKeysUnique: with the ablations in the plan, several studies
// batch one stream at one width, and every runner key is still unique.
func TestPlanUnitKeysUnique(t *testing.T) {
	sw := NewSweep(DefaultInsts)
	sw.plan = &plan{sw: sw}
	for _, part := range []Part{Table2Part, Table3Part, Figure3Part, Table4Part, CodedPart, WorkloadPart, AblationsPart(AblationInsts)} {
		part(sw)
	}
	seen := map[string]bool{}
	repeats := 0
	for _, c := range sw.plan.runnerCells() {
		if seen[c.Key] {
			t.Errorf("runner key %q repeats", c.Key)
		}
		seen[c.Key] = true
		if strings.Contains(c.Key, "#") {
			repeats++
		}
	}
	if !seen["lane/bench/compress/i300000/k5"] || !seen["lane/bench/compress/i300000/k5#2"] || repeats == 0 {
		t.Errorf("no numbered repeat of lane/bench/compress/i300000/k5 among %d keys", len(seen))
	}
}

// TestPlanFailFastKeepGoingStop: three tables, the second on a panicking
// arbiter. Fail-fast returns the first table and an error naming the failed
// cell, and skips the third; KeepGoing renders all three with the failed
// row ERR; a Stop before the pass renders all three with every cell ERR.
func TestPlanFailFastKeepGoingStop(t *testing.T) {
	parts := func() []Part {
		return []Part{
			tablesOf(faultTable([]string{"unit-stride"}, nil)),
			tablesOf(faultTable([]string{"line-stride"}, map[string]lbic.PortConfig{"line-stride": panicPort()})),
			tablesOf(faultTable([]string{"random"}, nil)),
		}
	}
	errCells := func(tables []*stats.Table) int {
		n := 0
		for _, tab := range tables {
			for _, row := range tab.Rows {
				n += strings.Count(strings.Join(row, " "), errCell)
			}
		}
		return n
	}

	sw := NewSweep(5_000)
	tables, err := Run(sw, parts()...)
	if err == nil || !strings.Contains(err.Error(), `runner: cell "sim/pat:line-stride/`) || !strings.Contains(err.Error(), "grant exploded") {
		t.Errorf("fail-fast error %v, want one naming the line-stride cell and the panic", err)
	}
	if len(tables) != 1 || errCells(tables) != 0 {
		t.Errorf("fail-fast rendered %d tables with %d ERR cells, want the first table whole", len(tables), errCells(tables))
	}
	var skipped int
	for _, f := range sw.Failures() {
		if errors.Is(f.Err, runner.ErrSkipped) {
			skipped++
			if !strings.Contains(f.Key, "pat:random/") {
				t.Errorf("%s skipped, want only the third table's cells", f.Key)
			}
		}
	}
	if skipped != 2 {
		t.Errorf("%d cells skipped, want the third table's 2", skipped)
	}

	sw = NewSweep(5_000)
	sw.KeepGoing = true
	if tables, err := Run(sw, parts()...); err != nil || len(tables) != 3 || errCells(tables) != 4 {
		t.Errorf("KeepGoing: %d tables, %d ERR cells, error %v; want 3 tables, the failed row and its average ERR, no error",
			len(tables), errCells(tables), err)
	}

	sw = NewSweep(5_000)
	stop := make(chan struct{})
	close(stop)
	sw.Stop = stop
	if tables, err := Run(sw, parts()...); err != nil || len(tables) != 3 || errCells(tables) != 12 {
		t.Errorf("Stop: %d tables, %d ERR cells, error %v; want 3 tables of ERR and no error", len(tables), errCells(tables), err)
	}
	if n := len(sw.Failures()); n != 6 {
		t.Errorf("Stop: %d failures, want every cell skipped", n)
	}
}

// TestProgCacheBuildsPerKey: two cells that need different programs build
// them at once, and one program builds once however many cells ask for it.
func TestProgCacheBuildsPerKey(t *testing.T) {
	pc := &progCache{m: map[string]*progBuild{}}
	started := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{})}
	build := func(mine, other string) func() (*lbic.Program, error) {
		return func() (*lbic.Program, error) {
			close(started[mine])
			select {
			case <-started[other]:
				return &lbic.Program{}, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("building " + mine + " held off the build of " + other)
			}
		}
	}
	var wg sync.WaitGroup
	for _, kv := range [][2]string{{"a", "b"}, {"b", "a"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pc.get(kv[0], build(kv[0], kv[1])); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var builds atomic.Int32
	var progs [8]*lbic.Program
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], _ = pc.get("c", func() (*lbic.Program, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond)
				return &lbic.Program{}, nil
			})
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("one program built %d times, want once", n)
	}
	for _, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("cells got programs %v, want one shared instance", progs)
		}
	}
}
