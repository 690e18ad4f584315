// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 2 (benchmark memory characteristics), Table 3 (IPC of
// ideal/replicated/banked port organizations at 1-16 ports), Figure 3
// (consecutive-reference bank mapping for an infinite 4-bank cache), and
// Table 4 (IPC of six MxN LBIC configurations). The cmd/lbictables binary,
// the root-level benchmarks, and the integration tests all drive this
// package, so the numbers reported everywhere come from one implementation.
//
// Every generator takes a *Sweep, which carries the execution policy:
// parallelism, per-cell timeouts, the one trace cache its cells share, and
// graceful shutdown. Each cell runs once. Failed cells render as ERR and are
// listed in Sweep.Failures; with Sweep.KeepGoing a partial sweep still
// produces every table.
//
// A generator called on its own runs its table as a plan of one. Run takes
// the Parts of a whole invocation and runs all their cells as one plan, in
// one runner pass (plan.go).
package experiments

import (
	"fmt"

	"lbic"
	"lbic/internal/stats"
)

// DefaultInsts is the per-run instruction budget for table generation. The
// paper ran 0.5-1.5 billion instructions per benchmark; our kernels are
// steady-state loops whose stream statistics converge within a few hundred
// thousand references, so one million instructions reproduces the same
// contrasts at laptop scale (EXPERIMENTS.md records the convergence check).
const DefaultInsts = 1_000_000

// Names of the SPECint and SPECfp benchmark groups, in the paper's order.
func intNames() []string { return []string{"compress", "gcc", "go", "li", "perl"} }
func fpNames() []string  { return []string{"hydro2d", "mgrid", "su2cor", "swim", "wave5"} }

func title(name string) string {
	// Benchmark display names follow the paper's capitalization.
	switch name {
	case "compress":
		return "Compress"
	case "gcc":
		return "Gcc"
	case "go":
		return "Go"
	case "li":
		return "Li"
	case "perl":
		return "Perl"
	case "hydro2d":
		return "Hydro2d"
	case "mgrid":
		return "Mgrid"
	case "su2cor":
		return "Su2cor"
	case "swim":
		return "Swim"
	case "wave5":
		return "Wave5"
	}
	return name
}

// --- Table 2 ---

// Table2Row is one benchmark's measured characteristics next to the paper's.
type Table2Row struct {
	Name  string
	Suite string
	Stats lbic.BenchmarkStats
	// Err is non-nil when the characterization cell failed; Stats is then
	// zero and the row renders as ERR.
	Err error

	PaperMemPct      float64
	PaperStoreToLoad float64
	PaperMissRate    float64
}

// table2Geom is the paper's 32KB direct-mapped, 32B-line L1.
func table2Geom() lbic.Geometry { return lbic.Geometry{Size: 32 << 10, LineSize: 32, Assoc: 1} }

// Table2 measures every kernel's Table 2 characteristics.
func Table2(sw *Sweep) ([]Table2Row, error) { return runOne(sw, table2) }

func table2(sw *Sweep) func() []Table2Row {
	infos := lbic.Benchmarks()
	cells := make([]cell, len(infos))
	for i, in := range infos {
		cells[i] = sw.charCell(in.Name, table2Geom())
	}
	sw.plan.add(cells)
	return func() []Table2Row {
		rows := make([]Table2Row, len(infos))
		for i, in := range infos {
			rows[i] = Table2Row{
				Name:             in.Name,
				Suite:            in.Suite,
				PaperMemPct:      in.PaperMemPct,
				PaperStoreToLoad: in.PaperStoreToLoad,
				PaperMissRate:    in.PaperMissRate,
			}
			if s, ok := sw.plan.vals[cells[i].Key].(lbic.BenchmarkStats); ok {
				rows[i].Stats = s
			} else {
				rows[i].Err = fmt.Errorf("characterizing %s failed", in.Name)
			}
		}
		return rows
	}
}

// Table2Table renders Table 2 with measured-vs-paper columns.
func Table2Table(rows []Table2Row) *stats.Table {
	t := stats.NewTable(
		"Table 2: benchmark memory characteristics (measured vs paper)",
		"Program", "Mem Instr % (paper)", "Store-to-Load (paper)", "L1 Miss Rate 32KB (paper)")
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(title(r.Name), errCell, errCell, errCell)
			continue
		}
		t.AddRow(
			title(r.Name),
			fmt.Sprintf("%.1f (%.1f)", r.Stats.MemPct, r.PaperMemPct),
			fmt.Sprintf("%.2f (%.2f)", r.Stats.StoreToLoad, r.PaperStoreToLoad),
			fmt.Sprintf("%.4f (%.4f)", r.Stats.MissRate, r.PaperMissRate),
		)
	}
	return t
}

// --- Table 3 ---

// PortCounts are the port/bank counts swept in Table 3.
var PortCounts = []int{2, 4, 8, 16}

// table3Kinds maps the Table 3 design names to port constructors.
func table3Port(kind string, p int) lbic.PortConfig {
	switch kind {
	case "Repl":
		return lbic.ReplicatedPort(p)
	case "Bank":
		return lbic.BankedPort(p)
	default:
		return lbic.IdealPort(p)
	}
}

// Table3Data holds IPC per benchmark: the shared single-port baseline plus
// True/Repl/Bank at each port count. Failed cells are absent from the maps;
// use Get/GetBase for presence-aware access.
type Table3Data struct {
	Insts uint64
	// Base is single-ported IPC per benchmark (identical across designs).
	Base map[string]float64
	// IPC[kind][ports][bench]; kind is "True", "Repl" or "Bank".
	IPC map[string]map[int]map[string]float64
}

// Get returns the IPC of one cell and whether it is present.
func (d *Table3Data) Get(kind string, ports int, name string) (float64, bool) {
	v, ok := d.IPC[kind][ports][name]
	return v, ok
}

// GetBase returns the single-port baseline IPC and whether it is present.
func (d *Table3Data) GetBase(name string) (float64, bool) {
	v, ok := d.Base[name]
	return v, ok
}

// Table3 runs the full Table 3 sweep: ideal, replicated and banked
// organizations at 1, 2, 4, 8 and 16 ports for every benchmark.
func Table3(sw *Sweep) (*Table3Data, error) { return runOne(sw, table3) }

func table3(sw *Sweep) func() *Table3Data {
	d := &Table3Data{
		Insts: sw.Insts,
		Base:  map[string]float64{},
		IPC: map[string]map[int]map[string]float64{
			"True": {}, "Repl": {}, "Bank": {},
		},
	}
	for _, kind := range []string{"True", "Repl", "Bank"} {
		for _, p := range PortCounts {
			d.IPC[kind][p] = map[string]float64{}
		}
	}
	var cells []cell
	type slot struct {
		kind  string
		ports int
		name  string
	}
	slots := map[string]slot{}
	add := func(s slot, c cell) {
		slots[c.Key] = s
		cells = append(cells, c)
	}
	for _, name := range lbic.BenchmarkNames() {
		add(slot{"", 1, name}, sw.simBench(name, lbic.IdealPort(1)))
		for _, p := range PortCounts {
			for _, kind := range []string{"True", "Repl", "Bank"} {
				add(slot{kind, p, name}, sw.simBench(name, table3Port(kind, p)))
			}
		}
	}
	sw.plan.add(cells)
	return func() *Table3Data {
		for key, s := range slots {
			v, ok := sw.plan.vals[key].(float64)
			switch {
			case !ok:
			case s.kind == "":
				d.Base[s.name] = v
			default:
				d.IPC[s.kind][s.ports][s.name] = v
			}
		}
		return d
	}
}

// Average returns the mean IPC over a benchmark group for one design/ports,
// over the cells that succeeded.
func (d *Table3Data) Average(kind string, ports int, names []string) float64 {
	var vs []float64
	for _, n := range names {
		if v, ok := d.Get(kind, ports, n); ok {
			vs = append(vs, v)
		}
	}
	return stats.Mean(vs)
}

// BaseAverage returns the mean single-port IPC over a benchmark group, over
// the cells that succeeded.
func (d *Table3Data) BaseAverage(names []string) float64 {
	var vs []float64
	for _, n := range names {
		if v, ok := d.GetBase(n); ok {
			vs = append(vs, v)
		}
	}
	return stats.Mean(vs)
}

// Table3Table renders the Table 3 layout: one row per benchmark plus group
// averages, columns 1-port then True/Repl/Bank at 2, 4, 8 and 16. Cells whose
// simulation failed render as ERR; group averages cover the remaining cells.
func Table3Table(d *Table3Data) *stats.Table {
	headers := []string{"Program", "1"}
	for _, p := range PortCounts {
		for _, kind := range []string{"True", "Repl", "Bank"} {
			headers = append(headers, fmt.Sprintf("%s-%d", kind, p))
		}
	}
	t := stats.NewTable("Table 3: IPC for ideal (True), replicated (Repl) and multi-bank (Bank)", headers...)
	addRow := func(label string, base string, get func(kind string, ports int) string) {
		cells := []string{label, base}
		for _, p := range PortCounts {
			for _, kind := range []string{"True", "Repl", "Bank"} {
				cells = append(cells, get(kind, p))
			}
		}
		t.AddRow(cells...)
	}
	benchRow := func(name string) {
		base, ok := d.GetBase(name)
		addRow(title(name), fmtCell(base, ok, stats.FormatIPC), func(k string, p int) string {
			v, ok := d.Get(k, p, name)
			return fmtCell(v, ok, stats.FormatIPC)
		})
	}
	avgRow := func(label string, names []string) {
		hasBase := false
		for _, n := range names {
			if _, ok := d.GetBase(n); ok {
				hasBase = true
			}
		}
		addRow(label, fmtCell(d.BaseAverage(names), hasBase, stats.FormatIPC), func(k string, p int) string {
			has := false
			for _, n := range names {
				if _, ok := d.Get(k, p, n); ok {
					has = true
				}
			}
			return fmtCell(d.Average(k, p, names), has, stats.FormatIPC)
		})
	}
	for _, name := range intNames() {
		benchRow(name)
	}
	avgRow("SPECint Ave.", intNames())
	for _, name := range fpNames() {
		benchRow(name)
	}
	avgRow("SPECfp Ave.", fpNames())
	return t
}

// --- Figure 3 ---

// Figure3Row is one benchmark's consecutive-reference distribution.
type Figure3Row struct {
	Name string
	Dist lbic.Distribution
	// Err is non-nil when the analysis cell failed; the row renders as ERR.
	Err error
}

// Figure3 computes the Figure 3 distributions (infinite 4-bank cache, 32B
// lines) for every benchmark.
func Figure3(sw *Sweep) ([]Figure3Row, error) { return runOne(sw, figure3) }

func figure3(sw *Sweep) func() []Figure3Row {
	names := lbic.BenchmarkNames()
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = sw.refCell(name, 4, 32)
	}
	sw.plan.add(cells)
	return func() []Figure3Row {
		rows := make([]Figure3Row, len(names))
		for i, name := range names {
			rows[i] = Figure3Row{Name: name}
			if d, ok := sw.plan.vals[cells[i].Key].(lbic.Distribution); ok {
				rows[i].Dist = d
			} else {
				rows[i].Err = fmt.Errorf("analyzing %s failed", name)
			}
		}
		return rows
	}
}

// figure3Avg averages the distribution fractions over the group members
// whose analysis succeeded; ok is false when none did.
func figure3Avg(rows []Figure3Row, names []string) (avg [5]float64, ok bool) {
	var sum [5]float64
	n := 0
	for _, want := range names {
		for _, r := range rows {
			if r.Name != want || r.Err != nil {
				continue
			}
			sum[0] += r.Dist.SameLineFrac()
			sum[1] += r.Dist.DiffLineFrac()
			sum[2] += r.Dist.OtherBankFrac(1)
			sum[3] += r.Dist.OtherBankFrac(2)
			sum[4] += r.Dist.OtherBankFrac(3)
			n++
		}
	}
	if n == 0 {
		return sum, false
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum, true
}

// Figure3Table renders the Figure 3 histogram as a table (the paper shows a
// stacked bar chart; the segments here are the bar heights).
func Figure3Table(rows []Figure3Row) *stats.Table {
	t := stats.NewTable(
		"Figure 3: consecutive reference mapping, infinite 4-bank cache, 32B lines",
		"Program", "B-same line", "B-diff line", "(B+1)mod4", "(B+2)mod4", "(B+3)mod4")
	add := func(label string, f [5]float64, ok bool) {
		t.AddRow(label,
			fmtCell(f[0], ok, stats.FormatPct), fmtCell(f[1], ok, stats.FormatPct),
			fmtCell(f[2], ok, stats.FormatPct), fmtCell(f[3], ok, stats.FormatPct),
			fmtCell(f[4], ok, stats.FormatPct))
	}
	rowFor := func(r Figure3Row) {
		add(title(r.Name), [5]float64{
			r.Dist.SameLineFrac(), r.Dist.DiffLineFrac(),
			r.Dist.OtherBankFrac(1), r.Dist.OtherBankFrac(2), r.Dist.OtherBankFrac(3)},
			r.Err == nil)
	}
	for _, r := range rows {
		if contains(intNames(), r.Name) {
			rowFor(r)
		}
	}
	avg, ok := figure3Avg(rows, intNames())
	add("SPECint Ave.", avg, ok)
	for _, r := range rows {
		if contains(fpNames(), r.Name) {
			rowFor(r)
		}
	}
	avg, ok = figure3Avg(rows, fpNames())
	add("SPECfp Ave.", avg, ok)
	return t
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// figure3Banks quantifies §4's "even with an infinite number of banks, a
// substantial fraction of the bank conflicts we see in these programs could
// remain since they are caused by items mapping to the same cache line":
// as the bank count grows, the same-bank-different-line fraction of
// consecutive references falls toward zero, but the same-line fraction — the
// part only combining can recover — is invariant.
func figure3Banks(sw *Sweep) func() *stats.Table {
	bankCounts := []int{2, 4, 16, 64}
	names := lbic.BenchmarkNames()
	var cells []cell
	keys := make(map[string]map[int]string, len(names)) // bench -> banks -> key
	for _, name := range names {
		keys[name] = map[int]string{}
		for _, b := range bankCounts {
			c := sw.refCell(name, b, 32)
			keys[name][b] = c.Key
			cells = append(cells, c)
		}
	}
	sw.plan.add(cells)
	return func() *stats.Table {
		headers := []string{"Program"}
		for _, b := range bankCounts {
			headers = append(headers, fmt.Sprintf("same-bank @%d", b))
		}
		headers = append(headers, "same-line (any)")
		t := stats.NewTable(
			"Figure 3 extension: same-bank fraction vs bank count (same-line floor)",
			headers...)
		for _, name := range names {
			row := []string{title(name)}
			var sameLine float64
			haveLine := false
			for _, b := range bankCounts {
				d, ok := sw.plan.vals[keys[name][b]].(lbic.Distribution)
				row = append(row, fmtCell(d.SameBankFrac(), ok, stats.FormatPct))
				if ok {
					sameLine = d.SameLineFrac() // line mapping is bank-count invariant
					haveLine = true
				}
			}
			row = append(row, fmtCell(sameLine, haveLine, stats.FormatPct))
			t.AddRow(row...)
		}
		return t
	}
}

// --- Table 4 ---

// LBICConfigs are the six MxN configurations of Table 4.
var LBICConfigs = [][2]int{{2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 2}, {8, 4}}

// Table4Data holds LBIC IPC per benchmark and configuration. Failed cells
// are absent; use Get.
type Table4Data struct {
	Insts uint64
	// IPC[config][bench], config formatted "MxN".
	IPC map[string]map[string]float64
}

// Get returns one cell's IPC and whether it is present.
func (d *Table4Data) Get(key, name string) (float64, bool) {
	v, ok := d.IPC[key][name]
	return v, ok
}

// ConfigKey formats an MxN configuration key.
func ConfigKey(m, n int) string { return fmt.Sprintf("%dx%d", m, n) }

// Table4 runs the Table 4 sweep: six MxN LBIC configurations per benchmark.
func Table4(sw *Sweep) (*Table4Data, error) { return runOne(sw, table4) }

func table4(sw *Sweep) func() *Table4Data {
	d := &Table4Data{Insts: sw.Insts, IPC: map[string]map[string]float64{}}
	for _, c := range LBICConfigs {
		d.IPC[ConfigKey(c[0], c[1])] = map[string]float64{}
	}
	var cells []cell
	type slot struct{ cfg, name string }
	slots := map[string]slot{}
	for _, name := range lbic.BenchmarkNames() {
		for _, c := range LBICConfigs {
			cell := sw.simBench(name, lbic.LBICPort(c[0], c[1]))
			slots[cell.Key] = slot{ConfigKey(c[0], c[1]), name}
			cells = append(cells, cell)
		}
	}
	sw.plan.add(cells)
	return func() *Table4Data {
		for key, s := range slots {
			if v, ok := sw.plan.vals[key].(float64); ok {
				d.IPC[s.cfg][s.name] = v
			}
		}
		return d
	}
}

// Average returns the mean IPC over a benchmark group for one configuration,
// over the cells that succeeded.
func (d *Table4Data) Average(key string, names []string) float64 {
	var vs []float64
	for _, n := range names {
		if v, ok := d.Get(key, n); ok {
			vs = append(vs, v)
		}
	}
	return stats.Mean(vs)
}

// Table4Table renders Table 4: one row per benchmark plus group averages.
// Failed cells render as ERR; averages cover the remaining cells.
func Table4Table(d *Table4Data) *stats.Table {
	headers := []string{"Program"}
	for _, c := range LBICConfigs {
		headers = append(headers, ConfigKey(c[0], c[1]))
	}
	t := stats.NewTable("Table 4: IPC for six MxN LBIC configurations", headers...)
	addRow := func(label string, get func(key string) string) {
		cells := []string{label}
		for _, c := range LBICConfigs {
			cells = append(cells, get(ConfigKey(c[0], c[1])))
		}
		t.AddRow(cells...)
	}
	for _, name := range intNames() {
		name := name
		addRow(title(name), func(k string) string {
			v, ok := d.Get(k, name)
			return fmtCell(v, ok, stats.FormatIPC)
		})
	}
	addRow("SPECint Ave.", func(k string) string {
		has := false
		for _, n := range intNames() {
			if _, ok := d.Get(k, n); ok {
				has = true
			}
		}
		return fmtCell(d.Average(k, intNames()), has, stats.FormatIPC)
	})
	for _, name := range fpNames() {
		name := name
		addRow(title(name), func(k string) string {
			v, ok := d.Get(k, name)
			return fmtCell(v, ok, stats.FormatIPC)
		})
	}
	addRow("SPECfp Ave.", func(k string) string {
		has := false
		for _, n := range fpNames() {
			if _, ok := d.Get(k, n); ok {
				has = true
			}
		}
		return fmtCell(d.Average(k, fpNames()), has, stats.FormatIPC)
	})
	return t
}

// IntNames returns the SPECint kernel names.
func IntNames() []string { return intNames() }

// FPNames returns the SPECfp kernel names.
func FPNames() []string { return fpNames() }
