// Command lbicasm assembles a .s file for the simulator's ISA and runs it
// functionally, printing its Table 2 statistics, or prints its disassembly:
//
//	lbicasm prog.s                  # functional run, print the statistics
//	lbicasm -insts 500000 prog.s
//	lbicasm -d prog.s               # disassembly listing
//
// To simulate it under a cache port organization, run lbicsim -asm prog.s.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lbic"
)

func main() {
	var (
		insts  = flag.Uint64("insts", 1_000_000, "instruction budget")
		disasm = flag.Bool("d", false, "print the disassembly listing and exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lbicasm [flags] prog.s")
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	prog, err := lbic.Assemble(name, string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("assembled %q: %d instructions, %d data bytes\n",
		name, len(prog.Code), prog.DataBytes())

	if *disasm {
		if err := prog.Disassemble(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	stats, err := lbic.Characterize(context.Background(), prog, lbic.CharacterizeOptions{Insts: *insts})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("functional run: %d instructions (%d loads, %d stores)\n",
		stats.Insts, stats.Loads, stats.Stores)
	fmt.Printf("mem%%=%.1f  store/load=%.2f  32KB-DM miss=%.4f\n",
		stats.MemPct, stats.StoreToLoad, stats.MissRate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbicasm:", err)
	os.Exit(1)
}
