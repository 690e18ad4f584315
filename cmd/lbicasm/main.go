// Command lbicasm assembles a .s file for the simulator's ISA and either
// runs it functionally or simulates it under a cache port organization:
//
//	lbicasm prog.s                          # functional run, print exit state
//	lbicasm -sim -port lbic -banks 4 -lineports 2 prog.s
//	lbicasm -insts 500000 -sim prog.s
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
		sim       = flag.Bool("sim", false, "run the timing simulation (default: functional only)")
		portKind  = flag.String("port", "ideal", "port organization: ideal | repl | banked | lbic, or any stable port name (bank-8, coded-4x2-spec, ...)")
		width     = flag.Int("width", 1, "port count (ideal, repl)")
		banks     = flag.Int("banks", 4, "bank count (banked, lbic)")
		linePorts = flag.Int("lineports", 2, "per-bank line-buffer ports (lbic)")
		insts     = flag.Uint64("insts", 1_000_000, "instruction budget")
		disasm    = flag.Bool("d", false, "print the disassembly listing and exit")
		jsonOut   = flag.String("json", "", "with -sim: write the machine-readable run report to this file (- for stdout)")
		metrics   = flag.Bool("metrics", false, "with -sim: print histogram and gauge tables")
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

	if !*sim {
		stats, err := lbic.Characterize(context.Background(), prog, lbic.CharacterizeOptions{Insts: *insts})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("functional run: %d instructions (%d loads, %d stores)\n",
			stats.Insts, stats.Loads, stats.Stores)
		fmt.Printf("mem%%=%.1f  store/load=%.2f  32KB-DM miss=%.4f\n",
			stats.MemPct, stats.StoreToLoad, stats.MissRate)
		return
	}

	var port lbic.PortConfig
	switch strings.ToLower(*portKind) {
	case "ideal", "true":
		port = lbic.IdealPort(*width)
	case "repl", "replicated":
		port = lbic.ReplicatedPort(*width)
	case "bank", "banked":
		port = lbic.BankedPort(*banks)
	case "lbic":
		port = lbic.LBICPort(*banks, *linePorts)
	default:
		// Any registered organization parses from its stable name.
		p, err := lbic.ParsePortName(*portKind)
		if err != nil {
			fatal(fmt.Errorf("unknown port organization %q: %v", *portKind, err))
		}
		port = p
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = *insts
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		f := os.Stdout
		if *jsonOut != "-" {
			f, err = os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
		}
		if err := lbic.NewReport(res).WriteJSON(f); err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			return
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
	fmt.Printf("simulated on %s: IPC %.3f (%d instructions, %d cycles)\n",
		port.Name(), res.IPC, res.Insts, res.Cycles)
	if *metrics {
		fmt.Println()
		if err := res.Metrics.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbicasm:", err)
	os.Exit(1)
}
