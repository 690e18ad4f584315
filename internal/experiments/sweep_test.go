package experiments

import (
	"strings"
	"testing"
	"time"

	"lbic"
	"lbic/internal/stats"
)

// testGrid is a tiny pattern x port grid that exercises the sweep machinery
// end to end: four cells at a 5k budget, keys
// sim/pat:{unit-stride,random}/{true-1,bank-4}/i5000.
func testGrid(sw *Sweep) (*stats.Table, error) {
	return faultGrid(sw, []string{"unit-stride", "random"}, nil)
}

// faultGrid is testGrid over the given patterns, where a pattern named in
// faults runs its first column on that port instead of true-1.
func faultGrid(sw *Sweep, pats []string, faults map[string]lbic.PortConfig) (*stats.Table, error) {
	return runOne(sw, faultTable(pats, faults))
}

// faultTable is faultGrid's table, for a plan.
func faultTable(pats []string, faults map[string]lbic.PortConfig) func(*Sweep) func() *stats.Table {
	return func(sw *Sweep) func() *stats.Table {
		ports := []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4)}
		cols := make([]column, len(ports))
		for i, port := range ports {
			cols[i] = column{header: port.Name(), cell: func(pat string) cell {
				if f, ok := faults[pat]; ok && i == 0 {
					return sw.simPattern(pat, f)
				}
				return sw.simPattern(pat, port)
			}}
		}
		return grid(sw, "test grid", pats, cols, stats.FormatIPC, true)
	}
}

// panicArbiter's Grant panics, standing in for a buggy arbiter design.
type panicArbiter struct{}

func (panicArbiter) Name() string   { return "panic" }
func (panicArbiter) PeakWidth() int { return 1 }
func (panicArbiter) Grant(uint64, []lbic.Request, []int) []int {
	panic("arbiter bug: grant exploded")
}

func panicPort() lbic.PortConfig {
	return lbic.CustomPort("panic", func(int) (lbic.Arbiter, error) { return panicArbiter{}, nil })
}

// hangArbiter's Grant blocks until release is closed, without watching any
// context, like a wedged arbiter: its cell can only be abandoned. Once
// released it grants the oldest request each cycle, so the abandoned
// simulation runs to its end.
type hangArbiter struct{ release <-chan struct{} }

func (hangArbiter) Name() string   { return "hang" }
func (hangArbiter) PeakWidth() int { return 1 }
func (a hangArbiter) Grant(_ uint64, ready []lbic.Request, dst []int) []int {
	<-a.release
	if len(ready) > 0 {
		dst = append(dst, 0)
	}
	return dst
}

// hangPort returns a port whose arbiter hangs until the test ends.
func hangPort(t *testing.T) lbic.PortConfig {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return lbic.CustomPort("hang", func(int) (lbic.Arbiter, error) { return hangArbiter{release}, nil })
}

// A panicking arbiter and a hung one must cost exactly their own lane
// batches: the table still renders, the failed stream groups' cells as ERR,
// and the failure log names the panic and the deadline.
func TestSweepRendersERRForInjectedFaults(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 4
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond

	tab, err := faultGrid(sw, []string{"unit-stride", "random", "line-stride"},
		map[string]lbic.PortConfig{"unit-stride": panicPort(), "random": hangPort(t)})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Each faulty arbiter fails its whole batch: two rows of two cells.
	if got := strings.Count(out, errCell); got != 4 {
		t.Errorf("rendered table has %d ERR cells, want 4:\n%s", got, out)
	}
	// The line-stride row survives in every column, so the average row
	// stays numeric.
	if strings.Contains(strings.SplitAfter(out, "Average")[1], errCell) {
		t.Errorf("average row has ERR despite surviving cells:\n%s", out)
	}

	fails := sw.Failures()
	if len(fails) != 4 {
		t.Fatalf("Failures() = %d entries, want 4: %v", len(fails), fails)
	}
	for _, f := range fails {
		switch m := f.Err.Error(); {
		case strings.Contains(f.Key, "pat:unit-stride/"):
			if !strings.Contains(m, "grant exploded") {
				t.Errorf("%s error = %q, want the arbiter's panic", f.Key, m)
			}
		case strings.Contains(f.Key, "pat:random/"):
			if !strings.Contains(m, "deadline") {
				t.Errorf("%s error = %q, want deadline exceeded", f.Key, m)
			}
		default:
			t.Errorf("unexpected failure %s: %v", f.Key, f.Err)
		}
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
// children as a validated span tree, including on a faulted batch.
func TestSweepSpansRecorded(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond
	sw.Spans = lbic.NewRequestTrace()

	if _, err := faultGrid(sw, []string{"unit-stride", "random"},
		map[string]lbic.PortConfig{"unit-stride": panicPort()}); err != nil {
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
		faulted := strings.Contains(sp.Name, "unit-stride")
		switch {
		case strings.HasPrefix(sp.Name, "simulate batch "):
			batches++
		case strings.HasPrefix(sp.Name, "cell "):
			cells++
			if faulted && sp.Attrs["error"] == nil {
				t.Errorf("panicked batch's cell span missing error attr: %v", sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			sims++
			if faulted && sp.Attrs["error"] == nil || !faulted && sp.Attrs["cycles"] == nil {
				t.Errorf("simulate span %q lacks its outcome (cycles, or error in the panicked batch): %v", sp.Name, sp.Attrs)
			}
		}
	}
	// The grid's four cells run as two runner cells, one lane batch of two
	// per pattern; the panicked batch still closes both its lanes' spans.
	if cells != 2 || batches != 2 || sims != 4 {
		t.Errorf("spans = %d cells, %d batches, %d sims; want 2, 2 and 4", cells, batches, sims)
	}
}
