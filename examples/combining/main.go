// Combining walks through the paper's Figure 4c example: four ready memory
// operations — a store and a store to one line of bank 0, two loads to one
// line of bank 1 — take three cycles on a 2-port replicated cache (each
// store broadcast is exclusive), two cycles on a 2-bank cache (one access
// per bank per cycle), and a single cycle on a 2x2 LBIC (each bank combines
// its same-line pair).
//
// The first part replays the exact one-shot scenario through each arbiter
// with ScenarioCycles. The second part runs a program that issues the same
// pattern continuously, showing the sustained picture: the LBIC's store
// queue must still retire its lines through the single-ported arrays, so
// sustained store-heavy traffic converges toward banked behaviour — exactly
// why the paper's Table 4 shows the LBIC's biggest wins on load-rich codes.
//
//	go run ./examples/combining
package main

import (
	"context"
	"fmt"
	"log"

	"lbic"
)

func main() {
	// With 2 banks and 32-byte lines, the bank is bit 5 of the address.
	// Line 12 of bank 0 holds the two stores; line 10+1 of bank 1 the loads
	// (the paper's access pattern of Figure 4c).
	refs := []lbic.Ref{
		{Addr: 12*64 + 0, Store: true},  // bank 0, store
		{Addr: 10*64 + 32 + 4},          // bank 1, load
		{Addr: 10*64 + 32 + 8},          // bank 1, load, same line
		{Addr: 12*64 + 12, Store: true}, // bank 0, store, same line
	}

	fmt.Println("One-shot (Figure 4c): four ready references, cycles to drain:")
	for _, port := range []lbic.PortConfig{
		lbic.ReplicatedPort(2),
		lbic.BankedPort(2),
		lbic.LBICPort(2, 2),
	} {
		cycles, err := lbic.ScenarioCycles(port, refs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %d cycle(s)\n", port.Name(), cycles)
	}
	fmt.Println("  (the paper's hand analysis: 3, 2 and 1)")

	// Sustained: the same pattern in a loop, through the full pipeline.
	b := lbic.NewBuilder("figure4c-sustained")
	region := b.Alloc(4<<10, 4096)
	r := lbic.R
	b.Li(r(1), int64(region))
	b.Li(r(2), int64(region)+4<<10)
	b.Li(r(3), 7)
	b.Label("loop")
	b.Sd(r(3), r(1), 0)  // bank 0
	b.Ld(r(4), r(1), 32) // bank 1
	b.Ld(r(5), r(1), 40) // bank 1, same line
	b.Sd(r(3), r(1), 8)  // bank 0, same line
	b.Addi(r(1), r(1), 64)
	b.Blt(r(1), r(2), "loop")
	b.Li(r(1), int64(region))
	b.J("loop")
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nSustained (full pipeline, cycles per 4-reference group):")
	for _, port := range []lbic.PortConfig{
		lbic.ReplicatedPort(2),
		lbic.BankedPort(2),
		lbic.LBICPort(2, 2),
	} {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = 300_000
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			log.Fatal(err)
		}
		extra := ""
		if res.LBIC != nil {
			extra = fmt.Sprintf("  (combined %d, store-line drains %d)",
				res.LBIC.Combined, res.LBIC.StoreDrains)
		}
		fmt.Printf("  %-8s %.2f%s\n", port.Name(),
			float64(res.Cycles)*6/float64(res.Insts), extra)
	}
	fmt.Println("\nSustained, the stores must still retire through the single-ported")
	fmt.Println("arrays, so the combining win concentrates on load-side traffic.")
}
