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
// Sweeps run cells in parallel (-jobs) with per-cell fault isolation: a
// panicking or hung simulation costs one table cell (rendered ERR, detailed
// in a stderr appendix), not the run. -timeout bounds each cell, -keep-going
// renders every table even when cells fail, and -journal FILE -resume
// checkpoints completed cells so an interrupted sweep reruns only what is
// missing. The first ^C stops launching new cells and renders what finished;
// a second ^C aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"lbic"
	"lbic/internal/experiments"
	"lbic/internal/runner"
	"lbic/internal/stats"
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
		retries    = flag.Int("retries", 1, "re-attempts for failed (non-timeout) cells")
		keepGoing  = flag.Bool("keep-going", false, "render tables with ERR cells instead of stopping at the first failure")
		journalP   = flag.String("journal", "", "checkpoint completed cells to this file")
		resume     = flag.Bool("resume", false, "serve cells already in -journal from the checkpoint")
		injPanic   = flag.String("inject-panic", "", "comma-separated key substrings whose cells panic (fault-injection testing)")
		injHang    = flag.String("inject-hang", "", "comma-separated key substrings whose cells hang (fault-injection testing)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile on exit to this file")
		noTrace    = flag.Bool("no-trace-cache", false, "re-execute the emulator for every cell instead of replaying recorded traces")
		traceMB    = flag.Int("trace-cache-mb", 256, "trace cache memory budget in MiB")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of every sweep cell's spans to this file (load in chrome://tracing)")
	)
	flag.Parse()

	if !*all && !*ablations && !*workloads && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *journalP == "" {
		fmt.Fprintln(os.Stderr, "lbictables: -resume requires -journal FILE")
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
	if !*noTrace {
		// Record each benchmark's dynamic trace once and replay it for every
		// port organization; tables are byte-identical either way.
		sw.Trace = lbic.NewTraceCache(int64(*traceMB) << 20)
	}
	sw.Jobs = *jobs
	sw.Timeout = *timeout
	sw.Retries = *retries
	sw.KeepGoing = *keepGoing
	sw.InjectPanic = splitList(*injPanic)
	sw.InjectHang = splitList(*injHang)
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
				fmt.Fprintf(os.Stderr, "  FAIL %s: %v\n", key, err)
			}
		}
	}

	if *journalP != "" {
		j, err := runner.OpenJournal(*journalP, *resume)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lbictables:", err)
			}
		}()
		if *resume && !*quiet {
			fmt.Fprintf(os.Stderr, "resuming: %d cells checkpointed in %s\n", j.Resumed(), *journalP)
		}
		sw.Journal = j
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

	progress := func(name string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  %s...\n", name)
		}
	}
	render := func(t *stats.Table) {
		var err error
		switch {
		case *jsonOut:
			err = t.JSON(os.Stdout)
		case *markdown:
			err = t.Markdown(os.Stdout)
		default:
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal(err)
		}
	}

	if *all || *table == 2 {
		note("Table 2")
		rows, err := experiments.Table2(sw)
		if err != nil {
			fatal(err)
		}
		render(experiments.Table2Table(rows))
	}
	if *all || *table == 3 {
		note("Table 3 (130 simulations)")
		d, err := experiments.Table3(sw)
		if err != nil {
			fatal(err)
		}
		render(experiments.Table3Table(d))
	}
	if *all || *figure == 3 {
		note("Figure 3")
		rows, err := experiments.Figure3(sw)
		if err != nil {
			fatal(err)
		}
		render(experiments.Figure3Table(rows))
	}
	if *all || *table == 4 {
		note("Table 4 (60 simulations)")
		d, err := experiments.Table4(sw)
		if err != nil {
			fatal(err)
		}
		render(experiments.Table4Table(d))
	}
	if *all {
		note("coded banks vs. line buffers (60 simulations)")
		t, err := experiments.CodedTable(sw)
		if err != nil {
			fatal(err)
		}
		render(t)
	}
	if *all || *workloads {
		note("workload matrices (2 tables)")
		for _, gen := range []func(*experiments.Sweep) (*stats.Table, error){
			experiments.WorkloadMatrix, experiments.WorkloadConflicts,
		} {
			t, err := gen(sw)
			if err != nil {
				fatal(err)
			}
			render(t)
		}
	}
	if *ablations {
		note("ablation studies")
		budget := *insts
		if budget > experiments.AblationInsts && *insts == experiments.DefaultInsts {
			budget = experiments.AblationInsts
		}
		tables, err := experiments.Ablations(sw.WithInsts(budget), progress)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			render(t)
		}
	}

	if sw.Trace != nil && !*quiet {
		ts := sw.Trace.Stats()
		fmt.Fprintf(os.Stderr,
			"trace cache: %d recordings, %d replays, %.1f MiB peak (%d evicted)\n",
			ts.Records, ts.Hits, float64(ts.BytesPeak)/(1<<20), ts.Evictions)
	}

	// Failure appendix: every ERR cell, on stderr so -json/-markdown stdout
	// stays machine-readable. Failed-but-rendered sweeps exit zero — the
	// tables are the product, and a -resume rerun repairs the holes.
	if fails := sw.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d cell(s) failed or were skipped:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", f.Key, f.Err)
		}
		if *journalP != "" {
			fmt.Fprintf(os.Stderr, "rerun with -journal %s -resume to retry only these cells\n", *journalP)
		}
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func note(what string) {
	fmt.Fprintf(os.Stderr, "generating %s...\n", what)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbictables:", err)
	os.Exit(1)
}
