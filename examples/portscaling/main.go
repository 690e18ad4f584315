// Portscaling reproduces the paper's §3 scaling observations for one
// benchmark: how IPC grows with ideal ports (the upper bound), where
// replication's store broadcasts bite, and where bank conflicts cap the
// multi-bank design.
//
//	go run ./examples/portscaling            # defaults to compress
//	go run ./examples/portscaling mgrid
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"lbic"
)

func main() {
	bench := "compress"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	prog, err := lbic.BuildBenchmark(bench)
	if err != nil {
		log.Fatal(err)
	}

	run := func(port lbic.PortConfig) float64 {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = 500_000
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res.IPC
	}

	base := run(lbic.IdealPort(1))
	fmt.Printf("%s: single-port IPC %.3f\n\n", bench, base)
	fmt.Printf("%6s  %8s %8s %8s   %s\n", "ports", "True", "Repl", "Bank", "True gain over 1 port")
	prev := base
	for _, p := range []int{2, 4, 8, 16} {
		ideal := run(lbic.IdealPort(p))
		repl := run(lbic.ReplicatedPort(p))
		bank := run(lbic.BankedPort(p))
		fmt.Printf("%6d  %8.3f %8.3f %8.3f   +%.0f%% (step +%.0f%%)\n",
			p, ideal, repl, bank, 100*(ideal-base)/base, 100*(ideal-prev)/prev)
		prev = ideal
	}

	fmt.Println()
	for _, c := range [][2]int{{2, 2}, {4, 2}, {4, 4}} {
		ipc := run(lbic.LBICPort(c[0], c[1]))
		fmt.Printf("LBIC %dx%d: IPC %.3f\n", c[0], c[1], ipc)
	}
}
