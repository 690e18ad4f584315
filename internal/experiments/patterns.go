package experiments

import (
	"lbic"
	"lbic/internal/stats"
)

// PatternMatrix simulates every access-pattern microbenchmark against a
// representative set of port organizations — the cleanest view of which
// stream property each design responds to: combining wins same-line bursts,
// banking wins balanced strides and random streams, replication loses store
// bursts, and nothing helps a pointer chase.
func PatternMatrix(sw *Sweep) (*stats.Table, error) {
	ports := []lbic.PortConfig{
		lbic.IdealPort(1),
		lbic.IdealPort(4),
		lbic.ReplicatedPort(4),
		lbic.BankedPort(4),
		bankedXor(4),
		lbic.LBICPort(4, 2),
		lbic.LBICPort(4, 4),
	}
	var names []string
	for _, pat := range lbic.Patterns() {
		names = append(names, pat.Name)
	}
	cols := make([]column, len(ports))
	for i, port := range ports {
		port := port
		cols[i] = column{header: port.Name(), cell: func(pat string) cell[float64] {
			return sw.simPattern(pat, port)
		}}
	}
	return grid(sw, "Access-pattern matrix (IPC)", names, cols, stats.FormatIPC, false)
}

func bankedXor(banks int) lbic.PortConfig {
	p := lbic.BankedPort(banks)
	p.Selector = lbic.XorFold
	return p
}
