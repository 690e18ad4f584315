// Quickstart: build a small custom program with the public Builder API and
// simulate it under two cache port organizations.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"lbic"
)

func main() {
	// A toy kernel: stream over an array, accumulating and writing back —
	// two loads and a store per element, with same-line pairs a combining
	// cache can exploit.
	b := lbic.NewBuilder("quickstart")
	data := b.Alloc(64<<10, 64)
	for i := 0; i < 64<<10; i += 8 {
		b.SetWord64(data+uint64(i), uint64(i))
	}

	r := lbic.R
	b.Li(r(1), int64(data)) // cursor
	b.Li(r(2), int64(data)+64<<10)
	b.Li(r(3), 0) // accumulator
	b.Label("loop")
	b.Ld(r(4), r(1), 0)
	b.Ld(r(5), r(1), 8) // same cache line as the previous load
	b.Add(r(3), r(3), r(4))
	b.Add(r(3), r(3), r(5))
	b.Sd(r(3), r(1), 16) // and so is the store
	b.Addi(r(1), r(1), 32)
	b.Blt(r(1), r(2), "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	for _, port := range []lbic.PortConfig{
		lbic.IdealPort(1),   // single-ported baseline
		lbic.BankedPort(4),  // traditional 4-bank interleaved
		lbic.LBICPort(4, 2), // the paper's 4x2 LBIC
	} {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s IPC %.3f  (%d instructions in %d cycles, %d loads forwarded)\n",
			port.Name(), res.IPC, res.Insts, res.Cycles, res.CPU.Forwards)
	}
}
