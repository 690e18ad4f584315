package experiments

import (
	"fmt"

	"lbic"
	"lbic/internal/stats"
)

// Ablation studies: design-choice sweeps the paper argues about in prose.
// Each returns a rendered table; cmd/lbictables -ablations prints them all.
// Like the main tables, every study runs through the Sweep policy: failed
// cells render as ERR and column averages cover the cells that succeeded
// (the old hand-rolled sum/10 averages silently assumed all ten benchmarks
// completed).

// AblationInsts is the default per-run budget for ablations (secondary
// studies run at a reduced budget).
const AblationInsts = 300_000

// fmtMissRate renders a miss rate for the capacity/associativity grids.
func fmtMissRate(v float64) string { return fmt.Sprintf("%.4f", v) }

// AblationBankSelection compares bank selection functions on the 4-bank
// cache (§3.2: "the choice of a selection function may not be as critical as
// we thought since much of the loss of bandwidth due to same bank collisions
// map to the same cache line"). Word interleaving is the §4 counterpoint:
// it removes same-line conflicts but costs tag replication.
func AblationBankSelection(sw *Sweep) (*stats.Table, error) {
	kinds := []struct {
		header string
		kind   lbic.BankSelectorKind
	}{
		{"bit-select", lbic.BitSelect},
		{"xor-fold", lbic.XorFold},
		{"word-interleave", lbic.WordInterleave},
	}
	cols := make([]column, len(kinds))
	for i, k := range kinds {
		kind := k.kind
		cols[i] = column{header: k.header, cell: func(b string) cell[float64] {
			port := lbic.BankedPort(4)
			port.Selector = kind
			return sw.simBench(b, port)
		}}
	}
	return grid(sw, "Ablation: bank selection function (4 banks, IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationCombiningPolicy compares the paper's leading-request LBIC with the
// §5.2 proposed enhancement (open the line with the largest combinable
// group, with periodic age rotation against starvation). Bespoke rendering:
// the delta column needs both the leading and greedy cells of a row, so a
// row with either half failed renders the delta as ERR too.
func AblationCombiningPolicy(sw *Sweep) (*stats.Table, error) {
	greedyPort := lbic.LBICPort(4, 2)
	greedyPort.Greedy = true
	names := lbic.BenchmarkNames()
	var cells []cell[float64]
	lKeys := make(map[string]string, len(names))
	gKeys := make(map[string]string, len(names))
	for _, name := range names {
		l := sw.simBench(name, lbic.LBICPort(4, 2))
		g := sw.simBench(name, greedyPort)
		lKeys[name], gKeys[name] = l.Key, g.Key
		cells = append(cells, l, g)
	}
	got, err := sweepRun(sw, cells)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation: LBIC line selection policy (4x2, IPC)",
		"Program", "leading", "greedy", "delta")
	var lVals, gVals []float64
	for _, name := range names {
		l, lok := got[lKeys[name]]
		g, gok := got[gKeys[name]]
		delta := errCell
		if lok && gok && l != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(g-l)/l)
		}
		t.AddRow(title(name),
			fmtCell(l, lok, stats.FormatIPC), fmtCell(g, gok, stats.FormatIPC), delta)
		if lok {
			lVals = append(lVals, l)
		}
		if gok {
			gVals = append(gVals, g)
		}
	}
	lAvg, gAvg := stats.Mean(lVals), stats.Mean(gVals)
	avgDelta := errCell
	if len(lVals) > 0 && len(gVals) > 0 && lAvg != 0 {
		avgDelta = fmt.Sprintf("%+.1f%%", 100*(gAvg-lAvg)/lAvg)
	}
	t.AddRow("Average",
		fmtCell(lAvg, len(lVals) > 0, stats.FormatIPC),
		fmtCell(gAvg, len(gVals) > 0, stats.FormatIPC), avgDelta)
	return t, nil
}

// AblationLSQDepth sweeps the load/store queue depth under the 4x2 LBIC
// (§5.2: "performance of the scheme depends on the depth of the LSQ. Deeper
// LSQs will help to minimize possible performance degradation due to
// insufficient data requests for combining").
func AblationLSQDepth(sw *Sweep) (*stats.Table, error) {
	depths := []int{16, 32, 64, 128, 512}
	cols := make([]column, len(depths))
	for i, d := range depths {
		d := d
		cols[i] = column{header: fmt.Sprintf("LSQ %d", d), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.LBICPort(4, 2), fmt.Sprintf("lsq%d", d), func(cfg *lbic.Config) {
				cpu := defaultCPU()
				cpu.LSQSize = d
				cfg.CPU = &cpu
			})
		}}
	}
	return grid(sw, "Ablation: LSQ depth under the 4x2 LBIC (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationStoreQueueDepth sweeps the LBIC per-bank store queue depth on the
// store-heavy integer codes (§5.2's PA8000-style store queue).
func AblationStoreQueueDepth(sw *Sweep) (*stats.Table, error) {
	depths := []int{1, 2, 4, 8, 32}
	cols := make([]column, len(depths))
	for i, d := range depths {
		d := d
		cols[i] = column{header: fmt.Sprintf("SQ %d", d), cell: func(b string) cell[float64] {
			port := lbic.LBICPort(4, 2)
			port.StoreQueueDepth = d
			return sw.simBench(b, port)
		}}
	}
	return grid(sw, "Ablation: LBIC per-bank store queue depth (4x2, IPC, SPECint)",
		IntNames(), cols, stats.FormatIPC, true)
}

// AblationStoreQueueDecomposition separates the LBIC's two mechanisms on the
// store-heavy integer suite: plain banking, banking plus PA8000-style store
// queues (no combining), and the full LBIC (store queues plus combining).
func AblationStoreQueueDecomposition(sw *Sweep) (*stats.Table, error) {
	cfgs := []lbic.PortConfig{
		lbic.BankedPort(4),
		lbic.BankedSQPort(4),
		lbic.LBICPort(4, 2),
		lbic.LBICPort(4, 4),
	}
	cols := make([]column, len(cfgs))
	for i, c := range cfgs {
		c := c
		cols[i] = column{header: c.Name(), cell: func(b string) cell[float64] {
			return sw.simBench(b, c)
		}}
	}
	return grid(sw, "Ablation: store queues vs combining (4 banks, IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationScanDepth sweeps the LSQ scheduling window (how many ready
// requests the arbiter sees per cycle) for the banked cache, quantifying the
// §5 claim that memory re-ordering lets multi-banking fill independent
// banks.
func AblationScanDepth(sw *Sweep) (*stats.Table, error) {
	widths := []int{1, 4, 16, 64, 256}
	cols := make([]column, len(widths))
	for i, w := range widths {
		w := w
		cols[i] = column{header: fmt.Sprintf("scan %d", w), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.BankedPort(4), fmt.Sprintf("scan%d", w), func(cfg *lbic.Config) {
				cpu := defaultCPU()
				cpu.MemScanDepth = w
				cfg.CPU = &cpu
			})
		}}
	}
	return grid(sw, "Ablation: LSQ scheduling window under bank-4 (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// lineSizeMut builds the Config mutation for an L1 line-size override.
func lineSizeMut(lineSize int) func(*lbic.Config) {
	return func(cfg *lbic.Config) {
		mem := lbic.DefaultMemParams()
		mem.L1.LineSize = lineSize
		if mem.L2.LineSize < lineSize {
			mem.L2.LineSize = lineSize
		}
		cfg.Mem = &mem
	}
}

// AblationLineSize sweeps the L1 line size under the 4x2 LBIC and the plain
// 4-bank cache. Larger lines put more consecutive references on one line:
// more combining opportunity for the LBIC, more same-line conflicts for the
// plain banked design — the tradeoff behind the paper's footnote-a choice of
// line interleaving.
func AblationLineSize(sw *Sweep) (*stats.Table, error) {
	lineSizes := []int{16, 32, 64, 128}
	var cols []column
	for _, ls := range lineSizes {
		ls := ls
		cols = append(cols, column{header: fmt.Sprintf("bank %dB", ls), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.BankedPort(4), fmt.Sprintf("ls%d", ls), lineSizeMut(ls))
		}})
	}
	for _, ls := range lineSizes {
		ls := ls
		cols = append(cols, column{header: fmt.Sprintf("lbic %dB", ls), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.LBICPort(4, 2), fmt.Sprintf("ls%d", ls), lineSizeMut(ls))
		}})
	}
	return grid(sw, "Ablation: L1 line size, 4-bank vs 4x2 LBIC (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationAssociativity reports each kernel's miss rate as the 32KB L1 gains
// associativity: conflict misses (go, perl, compress hot structures) fall,
// compulsory streaming misses (the FP codes) do not.
func AblationAssociativity(sw *Sweep) (*stats.Table, error) {
	assocs := []int{1, 2, 4, 8}
	cols := make([]column, len(assocs))
	for i, a := range assocs {
		a := a
		cols[i] = column{header: fmt.Sprintf("%d-way", a), cell: func(b string) cell[float64] {
			return sw.missRateCell(b, lbic.Geometry{Size: 32 << 10, LineSize: 32, Assoc: a})
		}}
	}
	return grid(sw, "Ablation: 32KB L1 associativity vs miss rate",
		lbic.BenchmarkNames(), cols, fmtMissRate, false)
}

// AblationEqualPorts compares designs with the SAME total of eight ports:
// one ideal 8-port array, multi-ported banks at 2x4/4x2, eight single-ported
// banks, and — at far lower cost than any of them — the 4x2 LBIC's eight
// effective ports (four single-ported banks plus line buffers). This is the
// cost/performance frontier the paper's conclusion argues about.
func AblationEqualPorts(sw *Sweep) (*stats.Table, error) {
	cfgs := []lbic.PortConfig{
		lbic.IdealPort(8),
		lbic.MultiPortedBanksPort(2, 4),
		lbic.MultiPortedBanksPort(4, 2),
		lbic.BankedPort(8),
		lbic.LBICPort(4, 2),
	}
	cols := make([]column, len(cfgs))
	for i, c := range cfgs {
		c := c
		cols[i] = column{header: c.Name(), cell: func(b string) cell[float64] {
			return sw.simBench(b, c)
		}}
	}
	return grid(sw, "Ablation: eight total ports, five ways (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationMemoryLatency sweeps the main-memory latency under true-4 and the
// 4x2 LBIC. The paper stresses bandwidth rather than latency (§2.1, a flat
// 10-cycle memory); this sweep verifies the design ranking it reports is
// stable as memory gets slower.
func AblationMemoryLatency(sw *Sweep) (*stats.Table, error) {
	lats := []int{10, 25, 50, 100}
	memLatMut := func(lat int) func(*lbic.Config) {
		return func(cfg *lbic.Config) {
			mem := lbic.DefaultMemParams()
			mem.MemLat = lat
			cfg.Mem = &mem
		}
	}
	var cols []column
	for _, l := range lats {
		l := l
		cols = append(cols, column{header: fmt.Sprintf("true-4 @%d", l), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.IdealPort(4), fmt.Sprintf("mlat%d", l), memLatMut(l))
		}})
	}
	for _, l := range lats {
		l := l
		cols = append(cols, column{header: fmt.Sprintf("lbic @%d", l), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.LBICPort(4, 2), fmt.Sprintf("mlat%d", l), memLatMut(l))
		}})
	}
	return grid(sw, "Ablation: main-memory latency (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationL2Bandwidth sweeps how many miss requests the L1-to-L2 path
// accepts per cycle under 16 ideal ports. The paper's §2.1 path accepts one
// per cycle; the streaming FP kernels turn out to be bound by exactly that,
// so widening it exposes how much of their port headroom the memory system
// was absorbing.
func AblationL2Bandwidth(sw *Sweep) (*stats.Table, error) {
	widths := []int{1, 2, 4}
	cols := make([]column, len(widths))
	for i, w := range widths {
		w := w
		cols[i] = column{header: fmt.Sprintf("%d/cycle", w), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.IdealPort(16), fmt.Sprintf("l2bw%d", w), func(cfg *lbic.Config) {
				mem := lbic.DefaultMemParams()
				mem.L2PerCycle = w
				cfg.Mem = &mem
			})
		}}
	}
	return grid(sw, "Ablation: L1-to-L2 request bandwidth under true-16 (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationAGUs sweeps the load/store (address generation) unit count under
// four ideal ports — Table 1's "varying # of L/S units". With fewer AGUs
// than ports, address generation throttles the memory stream before the
// ports can.
func AblationAGUs(sw *Sweep) (*stats.Table, error) {
	counts := []int{1, 2, 4, 64}
	cols := make([]column, len(counts))
	for i, n := range counts {
		n := n
		cols[i] = column{header: fmt.Sprintf("%d L/S", n), cell: func(b string) cell[float64] {
			return sw.simBenchMut(b, lbic.IdealPort(4), fmt.Sprintf("agu%d", n), func(cfg *lbic.Config) {
				cpu := defaultCPU()
				cpu.FUCount[lbic.ClassLoad] = n
				cpu.FUCount[lbic.ClassStore] = n
				cfg.CPU = &cpu
			})
		}}
	}
	return grid(sw, "Ablation: load/store unit count under true-4 (IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// AblationCacheSize sweeps the L1 capacity and reports the miss rate of each
// kernel, verifying the working sets respond to capacity the way their
// SPEC95 namesakes' footprints suggest.
func AblationCacheSize(sw *Sweep) (*stats.Table, error) {
	sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	cols := make([]column, len(sizes))
	for i, size := range sizes {
		size := size
		cols[i] = column{header: fmt.Sprintf("%dKB", size>>10), cell: func(b string) cell[float64] {
			return sw.missRateCell(b, lbic.Geometry{Size: size, LineSize: 32, Assoc: 1})
		}}
	}
	return grid(sw, "Ablation: L1 capacity vs miss rate (direct-mapped, 32B lines)",
		lbic.BenchmarkNames(), cols, fmtMissRate, false)
}

// defaultCPU mirrors the simulator's Table 1 baseline for overriding.
func defaultCPU() lbic.CPUConfig {
	return lbic.DefaultCPUConfig()
}

// Ablations runs every ablation study under the sweep's policy.
func Ablations(sw *Sweep, progress func(string)) ([]*stats.Table, error) {
	studies := []struct {
		name string
		run  func(*Sweep) (*stats.Table, error)
	}{
		{"bank selection", AblationBankSelection},
		{"combining policy", AblationCombiningPolicy},
		{"LSQ depth", AblationLSQDepth},
		{"store queue depth", AblationStoreQueueDepth},
		{"store queues vs combining", AblationStoreQueueDecomposition},
		{"scheduling window", AblationScanDepth},
		{"cache size", AblationCacheSize},
		{"line size", AblationLineSize},
		{"L2 bandwidth", AblationL2Bandwidth},
		{"equal total ports", AblationEqualPorts},
		{"memory latency", AblationMemoryLatency},
		{"load/store units", AblationAGUs},
		{"associativity", AblationAssociativity},
		{"access patterns", PatternMatrix},
		{"infinite banks", Figure3Banks},
		{"coded conflict decomposition", AblationCodedConflicts},
	}
	var tables []*stats.Table
	for _, s := range studies {
		if progress != nil {
			progress(s.name)
		}
		t, err := s.run(sw)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", s.name, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
