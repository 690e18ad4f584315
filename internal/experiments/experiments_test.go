package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// Tiny budgets: these tests verify plumbing and table structure, not
// measured values (the lbic package's integration tests cover shapes).
const tinyInsts = 20_000

// testSweep runs with mild parallelism to keep the sweep tests quick.
func testSweep(insts uint64) *Sweep {
	sw := NewSweep(insts)
	sw.Jobs = 4
	return sw
}

func TestTable2(t *testing.T) {
	rows, err := Table2(testSweep(tinyInsts))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Insts == 0 || r.Stats.MemPct <= 0 {
			t.Errorf("%s: empty stats %+v", r.Name, r.Stats)
		}
		if r.PaperMemPct == 0 {
			t.Errorf("%s: missing paper reference", r.Name)
		}
	}
	var sb strings.Builder
	if err := Table2Table(rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Compress") {
		t.Error("table missing Compress row")
	}
}

func TestFigure3(t *testing.T) {
	rows, err := Figure3(testSweep(tinyInsts))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		total := r.Dist.SameLineFrac() + r.Dist.DiffLineFrac() +
			r.Dist.OtherBankFrac(1) + r.Dist.OtherBankFrac(2) + r.Dist.OtherBankFrac(3)
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s: fractions sum to %v", r.Name, total)
		}
	}
	var sb strings.Builder
	if err := Figure3Table(rows).Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SPECint Ave.", "SPECfp Ave.", "B-same line"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("figure table missing %q", want)
		}
	}
}

func TestTable3SingleBench(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep is slow")
	}
	d, err := Table3(testSweep(tinyInsts))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compress", "swim"} {
		if d.Base[name] <= 0 {
			t.Errorf("%s: base IPC %v", name, d.Base[name])
		}
		for _, kind := range []string{"True", "Repl", "Bank"} {
			for _, p := range PortCounts {
				if d.IPC[kind][p][name] <= 0 {
					t.Errorf("%s %s-%d: IPC missing", name, kind, p)
				}
			}
		}
	}
	if a := d.Average("True", 4, IntNames()); a <= 0 {
		t.Error("int average missing")
	}
	var sb strings.Builder
	if err := Table3Table(d).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SPECfp Ave.") {
		t.Error("table missing averages")
	}
}

func TestTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep is slow")
	}
	d, err := Table4(testSweep(tinyInsts))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range LBICConfigs {
		key := ConfigKey(c[0], c[1])
		for _, name := range []string{"li", "mgrid"} {
			if d.IPC[key][name] <= 0 {
				t.Errorf("%s %s: IPC missing", key, name)
			}
		}
	}
	var sb strings.Builder
	if err := Table4Table(d).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2x2") {
		t.Error("table missing 2x2 column")
	}
}

func TestConfigKey(t *testing.T) {
	if ConfigKey(4, 2) != "4x2" {
		t.Error("ConfigKey wrong")
	}
}

func TestGroupNames(t *testing.T) {
	if len(IntNames()) != 5 || len(FPNames()) != 5 {
		t.Error("group sizes wrong")
	}
	if IntNames()[0] != "compress" || FPNames()[0] != "hydro2d" {
		t.Error("group order wrong")
	}
}

// Ablation drivers: structure smoke tests at tiny budgets.
func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	tables, err := Ablations(testSweep(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 16 {
		t.Fatalf("ablation tables = %d, want 16", len(tables))
	}
	for _, tab := range tables {
		if tab.Title == "" || len(tab.Headers) < 2 || len(tab.Rows) < 5 {
			t.Errorf("malformed ablation table %q: %d headers, %d rows",
				tab.Title, len(tab.Headers), len(tab.Rows))
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Errorf("%q: render: %v", tab.Title, err)
		}
	}
}

func TestFigure3Banks(t *testing.T) {
	tab, err := runOne(testSweep(20_000), figure3Banks)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The same-bank fraction must fall (or hold) as banks grow, per §4.
	for _, row := range tab.Rows {
		parse := func(cell string) float64 {
			var v float64
			fmt.Sscanf(cell, "%f%%", &v)
			return v
		}
		at2, at64 := parse(row[1]), parse(row[4])
		if at64 > at2+1e-9 {
			t.Errorf("%s: same-bank grew with banks: %v", row[0], row)
		}
	}
}
