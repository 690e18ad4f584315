// Command lbictables regenerates the tables and figures of the paper's
// evaluation section:
//
//	lbictables -table 2          # benchmark characteristics (vs paper)
//	lbictables -table 3          # True/Repl/Bank IPC sweep
//	lbictables -figure 3         # consecutive-reference bank mapping
//	lbictables -table 4          # MxN LBIC IPC sweep
//	lbictables -all              # everything
//	lbictables -all -markdown    # Markdown output (for EXPERIMENTS.md)
//	lbictables -all -insts 2000000
//
// Every table and figure the flags ask for joins one plan, and all their
// cells run as one pass: a point two tables show runs once, and no table
// waits for the last batch of the table before it. The tables print, in
// flag order, when the pass ends.
//
// Cells run in parallel (-jobs) with per-cell fault isolation: a panicking
// or hung simulation costs its own cells (rendered ERR, detailed in a
// stderr appendix), not the run. -timeout bounds each cell and -keep-going
// renders every table even when cells fail; without it the first failed
// cell ends the pass, the tables before the first one missing a cell
// print, and the exit status is 1, naming the cell. Each cell runs once:
// cells are deterministic, so a failed cell would fail again. Every cell
// streams through one trace cache (-trace-cache-mb), which records each
// program once per budget. The first ^C stops launching new cells and
// renders what finished; a second ^C aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"lbic"
	"lbic/internal/experiments"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table 2, 3 or 4")
		figure     = flag.Int("figure", 0, "regenerate figure 3")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		ablations  = flag.Bool("ablations", false, "run the design-choice ablation studies")
		workloads  = flag.Bool("workloads", false, "run the modern-workload generator matrices")
		insts      = flag.Uint64("insts", experiments.DefaultInsts, "instructions simulated per run")
		markdown   = flag.Bool("markdown", false, "emit Markdown tables")
		jsonOut    = flag.Bool("json", false, "emit JSON tables")
		quiet      = flag.Bool("q", false, "suppress progress output")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "cells simulated concurrently")
		timeout    = flag.Duration("timeout", 0, "per-cell time limit (0 = none)")
		keepGoing  = flag.Bool("keep-going", false, "render tables with ERR cells instead of stopping at the first failure")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile on exit to this file")
		traceMB    = flag.Int("trace-cache-mb", 256, "trace cache memory budget in MiB")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of every sweep cell's spans to this file (load in chrome://tracing)")
	)
	flag.Parse()

	if !*all && !*ablations && !*workloads && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	sw := experiments.NewSweep(*insts)
	sw.Trace = lbic.NewTraceCache(int64(*traceMB) << 20)
	sw.Jobs = *jobs
	sw.Timeout = *timeout
	sw.KeepGoing = *keepGoing
	if *traceOut != "" {
		sw.Spans = lbic.NewRequestTrace()
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := lbic.WriteChromeTrace(f, "lbictables", sw.Spans.Snapshot()); err != nil {
				fatal(err)
			}
		}()
	}
	if !*quiet {
		sw.OnCell = func(key string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "  FAIL %s: %s\n", key, experiments.FirstLine(err))
			}
		}
	}

	// Two-stage interrupt: the first ^C requests graceful shutdown (in-flight
	// cells finish or time out, tables render with the rest marked ERR); the
	// second aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw.Ctx = ctx
	stop := make(chan struct{})
	sw.Stop = stop
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "lbictables: interrupted — finishing in-flight cells (^C again to abort)")
		close(stop)
		<-sigs
		fmt.Fprintln(os.Stderr, "lbictables: aborting")
		cancel()
	}()

	// Every table the flags ask for joins one plan, in output order, and
	// runs in one pass; the tables render once it ends.
	var parts []experiments.Part
	add := func(what string, part experiments.Part) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "generating %s...\n", what)
		}
		parts = append(parts, part)
	}
	if *all || *table == 2 {
		add("Table 2", experiments.Table2Part)
	}
	if *all || *table == 3 {
		add("Table 3 (130 simulations)", experiments.Table3Part)
	}
	if *all || *figure == 3 {
		add("Figure 3", experiments.Figure3Part)
	}
	if *all || *table == 4 {
		add("Table 4 (60 simulations)", experiments.Table4Part)
	}
	if *all {
		add("coded banks vs. line buffers (60 simulations)", experiments.CodedPart)
	}
	if *all || *workloads {
		add("workload matrices (2 tables)", experiments.WorkloadPart)
	}
	if *ablations {
		// The ablations default to their own smaller budget; an explicit
		// -insts, the default's value included, overrides it.
		budget := uint64(experiments.AblationInsts)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "insts" {
				budget = *insts
			}
		})
		add("ablation studies", experiments.AblationsPart(budget))
	}
	tables, err := experiments.Run(sw, parts...)
	for _, t := range tables {
		var rerr error
		switch {
		case *jsonOut:
			rerr = t.JSON(os.Stdout)
		case *markdown:
			rerr = t.Markdown(os.Stdout)
		default:
			rerr = t.Render(os.Stdout)
			fmt.Println()
		}
		if rerr != nil {
			fatal(rerr)
		}
	}
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		ts := sw.Trace.Stats()
		fmt.Fprintf(os.Stderr,
			"trace cache: %d recordings, %d replays, %.1f MiB peak (%d evicted)\n",
			ts.Records, ts.Hits, float64(ts.BytesPeak)/(1<<20), ts.Evictions)
	}

	// Failure appendix: every ERR cell, on stderr so -json/-markdown stdout
	// stays machine-readable. Failed-but-rendered sweeps exit zero — the
	// tables are the product, and the appendix names each hole and why.
	if fails := sw.Failures(); len(fails) > 0 {
		experiments.WriteFailures(os.Stderr, fails)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbictables:", err)
	os.Exit(1)
}
