package experiments

import (
	"lbic"
	"lbic/internal/stats"
)

// Coded-banks studies: where does XOR-coded multi-port emulation (arXiv
// 2001.09599) beat the paper's LBIC line buffers, and do the two compose?
// The axis holds port cost roughly constant at four single-ported data banks
// and varies what backs them: nothing (the baseline banked cache), one or
// two parity banks (strict reconstruction), the speculative single-read
// variant (arXiv 2502.00147), the 4x2 LBIC, and LBIC-over-coded-banks.

// codedAxis is the column set of both coded tables.
func codedAxis() []lbic.PortConfig {
	spec := lbic.CodedPort(4, 2)
	spec.Speculative = true
	composed := lbic.CodedPort(4, 2)
	composed.LinePorts = 2
	return []lbic.PortConfig{
		lbic.BankedPort(4),
		lbic.CodedPort(4, 1),
		lbic.CodedPort(4, 2),
		spec,
		lbic.LBICPort(4, 2),
		composed,
	}
}

// codedTable reports IPC of every kernel under the coded-banks axis — the
// headline "coding vs. line buffers" comparison.
func codedTable(sw *Sweep) func() *stats.Table {
	axis := codedAxis()
	cols := make([]column, len(axis))
	for i, port := range axis {
		port := port
		cols[i] = column{header: port.Name(), cell: func(b string) cell {
			return sw.simBench(b, port)
		}}
	}
	return grid(sw, "Coded banks vs. line buffers (4 data banks, IPC)",
		lbic.BenchmarkNames(), cols, stats.FormatIPC, true)
}

// ablationCodedConflicts is the same axis viewed through the port subsystem:
// stalled requests per granted access. Coding converts same-bank read
// conflicts into parity reconstructions, so its win over the banked baseline
// shows up here first; what remains on the coded columns is store pressure
// (code updates) plus reads the single parity port could not absorb, which
// is exactly the share the composed LBIC-over-coded column attacks.
func ablationCodedConflicts(sw *Sweep) func() *stats.Table {
	axis := codedAxis()
	cols := make([]column, len(axis))
	for i, port := range axis {
		port := port
		cols[i] = column{header: port.Name(), cell: func(b string) cell {
			return sw.simBenchConflict(b, port)
		}}
	}
	return grid(sw, "Ablation: coded vs. LBIC vs. composed (conflicts per access)",
		lbic.BenchmarkNames(), cols, formatRate, true)
}
