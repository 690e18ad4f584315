// Command reportdiff compares two machine-readable run reports written by
// `lbicsim -json` and prints the IPC, stall-stack, and conflict deltas — the
// quick answer to "what did this port change buy?":
//
//	go run ./cmd/lbicsim -bench swim -port bank-4 -json bank.json
//	go run ./cmd/lbicsim -bench swim -port lbic-4x2 -json lbic.json
//	go run ./scripts/reportdiff bank.json lbic.json
package main

import (
	"fmt"
	"os"

	"lbic"
	"lbic/internal/stats"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: reportdiff <baseline.json> <candidate.json>")
		os.Exit(2)
	}
	a := read(os.Args[1])
	b := read(os.Args[2])

	if a.Benchmark != b.Benchmark {
		fmt.Fprintf(os.Stderr, "reportdiff: warning: comparing different benchmarks (%s vs %s)\n",
			a.Benchmark, b.Benchmark)
	}

	t := stats.NewTable(
		fmt.Sprintf("%s: %s -> %s", b.Benchmark, a.Port.Name, b.Port.Name),
		"metric", a.Port.Name, b.Port.Name, "delta")
	addU := func(name string, x, y uint64) {
		t.AddRow(name, fmt.Sprintf("%d", x), fmt.Sprintf("%d", y), deltaU(x, y))
	}
	t.AddRow("IPC", fmt.Sprintf("%.3f", a.IPC), fmt.Sprintf("%.3f", b.IPC), deltaF(a.IPC, b.IPC))
	addU("cycles", a.Cycles, b.Cycles)
	addU("insts", a.Insts, b.Insts)
	addU("L1 accesses", a.Mem.Accesses, b.Mem.Accesses)
	t.AddRow("L1 miss rate",
		fmt.Sprintf("%.4f", a.Mem.MissRate()), fmt.Sprintf("%.4f", b.Mem.MissRate()),
		deltaF(a.Mem.MissRate(), b.Mem.MissRate()))
	addU("port conflicts", conflicts(a), conflicts(b))
	if a.LBIC != nil || b.LBIC != nil {
		addU("lbic combined", lbicCombined(a), lbicCombined(b))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()

	// Stall-stack delta: which causes gained or lost cycles.
	st := stats.NewTable("CPI stall stack delta", "cause", a.Port.Name, b.Port.Name, "delta")
	for i, ba := range a.CPIStack {
		var bb lbic.StallBucket
		if i < len(b.CPIStack) {
			bb = b.CPIStack[i]
		}
		st.AddRow(ba.Cause, fmt.Sprintf("%d", ba.Cycles), fmt.Sprintf("%d", bb.Cycles),
			deltaU(ba.Cycles, bb.Cycles))
	}
	if err := st.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// conflicts totals the per-bank conflict histogram, falling back to the
// aggregate Banked counter for reports without one.
func conflicts(r lbic.Report) uint64 {
	for _, h := range r.Metrics.Histograms {
		if h.Name == "port.bank_conflicts" {
			var n uint64
			for _, b := range h.Buckets {
				n += b
			}
			return n
		}
	}
	return r.BankConflicts
}

func lbicCombined(r lbic.Report) uint64 {
	if r.LBIC == nil {
		return 0
	}
	return r.LBIC.Combined
}

func deltaU(a, b uint64) string {
	d := int64(b) - int64(a)
	if a == 0 {
		return fmt.Sprintf("%+d", d)
	}
	return fmt.Sprintf("%+d (%+.1f%%)", d, 100*float64(d)/float64(a))
}

func deltaF(a, b float64) string {
	if a == 0 {
		return fmt.Sprintf("%+.3f", b-a)
	}
	return fmt.Sprintf("%+.3f (%+.1f%%)", b-a, 100*(b-a)/a)
}

func read(path string) lbic.Report {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rep, err := lbic.ReadReport(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return rep
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reportdiff:", err)
	os.Exit(1)
}
