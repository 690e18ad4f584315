package experiments

import (
	"context"
	"fmt"

	"lbic"
	"lbic/internal/stats"
)

// workloadPorts is the port-organization axis of the workload tables: the
// registry's representative configurations per family (so a newly registered
// port kind joins these tables without edits here), matching the
// access-pattern matrix so the two tables read side by side.
func workloadPorts() []lbic.PortConfig { return lbic.PortAxis() }

// simGen is one workload generator (at its catalog-default parameters)
// under one port organization at the sweep budget. The cell key embeds the
// fully resolved parameter key, so any change to a generator's defaults
// invalidates journaled cells instead of silently reusing them.
func (sw *Sweep) simGen(kind string, port lbic.PortConfig) cell[float64] {
	return sw.genCell(kind, port, "", func(r *lbic.Result) float64 { return r.IPC })
}

// simGenConflict is simGen reduced to the same-bank conflict rate. Distinct
// key namespace: the journaled value differs.
func (sw *Sweep) simGenConflict(kind string, port lbic.PortConfig) cell[float64] {
	return sw.genCell(kind, port, "conf/", func(r *lbic.Result) float64 { return r.PortConflictRate() })
}

func (sw *Sweep) genCell(kind string, port lbic.PortConfig, ns string, pick func(*lbic.Result) float64) cell[float64] {
	insts := sw.Insts
	params := lbic.GenParams{Kind: kind}
	rp, err := params.Resolve()
	if err != nil {
		key := fmt.Sprintf("sim/%sgen:%s/%s/i%d", ns, kind, port.Key(), insts)
		return cell[float64]{Key: key, run: func(context.Context) (float64, error) { return 0, err }}
	}
	// The memo key strips the namespace: the IPC and conflict-rate views of
	// one (generator, port, budget) point are the same simulation, so the
	// second table reuses the first's Result instead of re-synthesizing the
	// stream.
	return cell[float64]{Key: fmt.Sprintf("sim/%s%s/%s/i%d", ns, rp.Key(), port.Key(), insts), sim: &simSpec[float64]{
		group:   fmt.Sprintf("gen/%s/i%d", rp.Key(), insts),
		source:  func() (lbic.Source, error) { return lbic.GeneratorSource(params), nil },
		port:    port,
		insts:   insts,
		pick:    pick,
		memoKey: fmt.Sprintf("sim/%s/%s/i%d", rp.Key(), port.Key(), insts),
	}}
}

// WorkloadMatrix simulates every catalog workload generator against a
// representative of each port-organization family and reports IPC. It is
// the modern-workload companion to the access-pattern matrix: where the
// patterns isolate single access shapes, the generators model whole
// post-SPEC95 reference streams (KV lookups, hash joins, pointer chasing,
// GC sweeps, multiprogrammed interleavings).
func WorkloadMatrix(sw *Sweep) (*stats.Table, error) {
	return workloadGrid(sw, "Workload-generator matrix (IPC)",
		(*Sweep).simGen, stats.FormatIPC)
}

// WorkloadConflicts is the same sweep viewed through the port subsystem:
// same-bank conflicts per access on each organization. Rates can exceed 1 —
// a request that stalls re-conflicts every cycle it waits — which is
// exactly the pressure the adversarial search maximizes.
func WorkloadConflicts(sw *Sweep) (*stats.Table, error) {
	return workloadGrid(sw, "Workload-generator matrix (bank conflicts per access)",
		(*Sweep).simGenConflict, formatRate)
}

func workloadGrid(sw *Sweep, tableTitle string, gen func(*Sweep, string, lbic.PortConfig) cell[float64], format func(float64) string) (*stats.Table, error) {
	ports := workloadPorts()
	names := lbic.GeneratorKinds()
	cols := make([]column, len(ports))
	for i, port := range ports {
		port := port
		cols[i] = column{header: port.Name(), cell: func(kind string) cell[float64] {
			return gen(sw, kind, port)
		}}
	}
	return grid(sw, tableTitle, names, cols, format, false)
}

// formatRate renders a conflicts-per-access rate.
func formatRate(v float64) string { return fmt.Sprintf("%.3f", v) }
