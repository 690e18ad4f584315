// Command lbicsim runs one workload under one cache port organization and
// prints the measured statistics. The organization is a registry name (the
// grammar of lbic.ParsePortName, listed by -h); the workload is a kernel, an
// access pattern, a synthetic generator, a recorded trace or an assembly
// file:
//
//	lbicsim -bench compress -port true-4
//	lbicsim -bench swim -port bank-8
//	lbicsim -bench mgrid -port lbic-4x2 -insts 2000000
//	lbicsim -bench compress -port lbic-4x2 -json run.json
//	lbicsim -bench compress -port bank-4 -metrics
//	lbicsim -bench li -port coded-4x2-spec
//	lbicsim -bench compress -config run.json
//	lbicsim -bench compress -port lbic-4x2 -trace-out trace.json   # chrome://tracing
//	lbicsim -bench swim -port bank-4 -pipeline 2000:40             # per-cycle timeline
//	lbicsim -asm examples/asm/saxpy.s -port lbic-4x2               # assembled program
//	lbicsim -gen zipf -port bank-4                                 # synthetic stream
//	lbicsim -gen '{"kind":"zipf","skew_pct":99}' -port lbic-4x2
//	lbicsim -bench compress -insts 100000 -trace-dump compress.lbictrace
//	lbicsim -trace-in compress.lbictrace -port lbic-4x2 -json -
//	lbicsim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"lbic"
)

func main() {
	var (
		bench      = flag.String("bench", "compress", "benchmark kernel to run")
		pattern    = flag.String("pattern", "", "run an access-pattern microbenchmark instead of -bench")
		genSpec    = flag.String("gen", "", "run a synthetic generator stream instead of -bench: a catalog kind (see -list) or an inline GenParams JSON object")
		traceIn    = flag.String("trace-in", "", "replay a serialized lbic-trace-stream/v1 file instead of -bench (- for stdin); without an explicit -insts the whole trace runs")
		traceDump  = flag.String("trace-dump", "", "record the selected workload for -insts instructions, write it as lbic-trace-stream/v1 to this file (- for stdout), and exit without simulating")
		asmPath    = flag.String("asm", "", "simulate this assembly file instead of -bench, named after its base name (see ISA.md)")
		configPath = flag.String("config", "", "load the full simulation Config from this JSON file (flags set explicitly still override)")
		portName   = flag.String("port", "true-1", "port organization, a registry name: "+lbic.PortNameExamples())
		insts      = flag.Uint64("insts", 1_000_000, "instructions to simulate")
		timeout    = flag.Duration("timeout", 0, "abort the run after this wall-clock time (0 = none)")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		verbose    = flag.Bool("v", false, "print detailed CPU and memory statistics")
		verify     = flag.Bool("verify", false, "attach the correctness oracle: check every grant, value, and queue against sequential semantics")
		showMetric = flag.Bool("metrics", false, "print histogram and gauge tables (CPI stack, per-bank conflicts, ...)")
		jsonOut    = flag.String("json", "", "write the machine-readable run report to this file (- for stdout)")
		eventsOut  = flag.String("events", "", "write the structured JSONL event trace to this file (- for stdout)")
		pipeline   = flag.String("pipeline", "", "print the per-cycle pipeline timeline to stdout before the summary: SKIP:CYCLES[:EVERY] prints CYCLES lines (0 = to the end) from cycle SKIP on, one per EVERY cycles")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of the run's spans to this file (load in chrome://tracing)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	)
	flag.Parse()

	if *list {
		for _, in := range lbic.Benchmarks() {
			fmt.Printf("%-9s (%s)  %s\n", in.Name, in.Suite, in.Description)
		}
		fmt.Println("\naccess-pattern microbenchmarks (-pattern):")
		for _, p := range lbic.Patterns() {
			fmt.Printf("%-16s %s\n", p.Name, p.Description)
		}
		fmt.Println("\nsynthetic stream generators (-gen):")
		for _, g := range lbic.Generators() {
			fmt.Printf("%-16s %s\n", g.Kind, g.Description)
		}
		return
	}

	// stdout carries at most one stream, so each stays parseable.
	var stdoutUsers []string
	if *jsonOut == "-" {
		stdoutUsers = append(stdoutUsers, "-json -")
	}
	if *eventsOut == "-" {
		stdoutUsers = append(stdoutUsers, "-events -")
	}
	if *pipeline != "" {
		stdoutUsers = append(stdoutUsers, "-pipeline")
	}
	if len(stdoutUsers) > 1 {
		fatal(fmt.Errorf("%s cannot share stdout; write all but one to a file", strings.Join(stdoutUsers, " and ")))
	}

	// Flags given explicitly on the command line override a -config file.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	cfg := lbic.DefaultConfig()
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *configPath, err))
		}
	}
	if *configPath == "" || set["port"] {
		port, err := lbic.ParsePortName(*portName)
		if err != nil {
			fatal(err)
		}
		cfg.Port = port
	}
	if *configPath == "" || set["insts"] {
		cfg.MaxInsts = *insts
	}
	if *configPath == "" || set["verify"] {
		cfg.Verify = *verify
	}
	if *traceIn != "" && !set["insts"] && *configPath == "" {
		// Replaying a serialized trace: the natural budget is the whole trace.
		cfg.MaxInsts = 0
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	exclusive := 0
	if set["bench"] {
		exclusive++
	}
	for _, s := range []string{*pattern, *genSpec, *traceIn, *asmPath} {
		if s != "" {
			exclusive++
		}
	}
	if exclusive > 1 {
		fatal(fmt.Errorf("-bench, -pattern, -gen, -trace-in and -asm are mutually exclusive"))
	}
	if *pipeline != "" {
		view, err := parsePipeline(*pipeline)
		if err != nil {
			fatal(err)
		}
		view.W = os.Stdout
		cfg.Pipeline = &view
	}
	if *traceDump != "" && *traceIn != "" {
		fatal(fmt.Errorf("-trace-dump cannot be combined with -trace-in"))
	}

	var (
		prog     *lbic.Program
		genParam lbic.GenParams
		src      lbic.Source
		name     string
		err      error
	)
	switch {
	case *traceIn != "":
		var f *os.File
		if *traceIn == "-" {
			f = os.Stdin
		} else if f, err = os.Open(*traceIn); err != nil {
			fatal(err)
		}
		replay, err := lbic.ReadTraceStream(f)
		if *traceIn != "-" {
			f.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("reading %s: %w", *traceIn, err))
		}
		src, name = lbic.TraceSource(replay), replay.Name()
	case *genSpec != "":
		if genParam, err = parseGen(*genSpec); err != nil {
			fatal(err)
		}
		src, name = lbic.GeneratorSource(genParam), genParam.Key()
	case *pattern != "":
		if prog, err = lbic.BuildPattern(*pattern); err != nil {
			fatal(err)
		}
		src, name = lbic.ProgramSource(prog), prog.Name
	case *asmPath != "":
		text, err := os.ReadFile(*asmPath)
		if err != nil {
			fatal(err)
		}
		base := filepath.Base(*asmPath)
		if prog, err = lbic.Assemble(strings.TrimSuffix(base, filepath.Ext(base)), string(text)); err != nil {
			fatal(err)
		}
		src, name = lbic.ProgramSource(prog), prog.Name
	default:
		if prog, err = lbic.BuildBenchmark(*bench); err != nil {
			fatal(err)
		}
		src, name = lbic.ProgramSource(prog), prog.Name
	}

	if *traceDump != "" {
		dumpTrace(*traceDump, prog, genParam, *genSpec != "", cfg.MaxInsts)
		return
	}

	var eventSink *lbic.JSONLEventSink
	if *eventsOut != "" {
		f, closeFn, err := create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		defer closeFn()
		eventSink = lbic.NewJSONLEventSink(f)
		cfg.Events = eventSink
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

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var spanTrace *lbic.RequestTrace
	if *traceOut != "" {
		spanTrace = lbic.NewRequestTrace()
		ctx = lbic.WithTrace(ctx, spanTrace)
	}
	res, err := lbic.Simulate(ctx, src, cfg)
	if spanTrace != nil {
		f, closeFn, ferr := create(*traceOut)
		if ferr != nil {
			fatal(ferr)
		}
		if werr := lbic.WriteChromeTrace(f, name, spanTrace.Snapshot()); werr != nil {
			fatal(werr)
		}
		closeFn()
	}
	if err != nil {
		fatal(err)
	}
	if eventSink != nil {
		if err := eventSink.Err(); err != nil {
			fatal(fmt.Errorf("writing event trace: %w", err))
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *jsonOut != "" {
		f, closeFn, err := create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := lbic.NewReport(res).WriteJSON(f); err != nil {
			fatal(err)
		}
		closeFn()
		if *jsonOut == "-" {
			return
		}
	}
	// Events streamed to stdout: keep the stream pure JSONL.
	if *eventsOut == "-" {
		return
	}

	if cfg.Pipeline != nil {
		fmt.Println()
	}
	fmt.Printf("benchmark:   %s\n", res.Benchmark)
	fmt.Printf("ports:       %s (peak %d accesses/cycle)\n", cfg.Port.Name(), cfg.Port.PeakWidth())
	fmt.Printf("insts:       %d\n", res.Insts)
	fmt.Printf("cycles:      %d\n", res.Cycles)
	fmt.Printf("IPC:         %.3f\n", res.IPC)
	fmt.Printf("loads:       %d (%d forwarded in the LSQ)\n", res.CPU.Loads, res.CPU.Forwards)
	fmt.Printf("stores:      %d\n", res.CPU.Stores)
	fmt.Printf("L1 miss:     %.4f (%d accesses)\n", res.Mem.MissRate(), res.Mem.Accesses)
	if res.BankConflicts > 0 {
		fmt.Printf("bank conflicts: %d\n", res.BankConflicts)
	}
	if res.LBIC != nil {
		fmt.Printf("lbic: leading=%d combined=%d line-conflicts=%d drains=%d\n",
			res.LBIC.Leading, res.LBIC.Combined, res.LBIC.LineConflicts, res.LBIC.StoreDrains)
		fmt.Printf("lbic: port-saturation=%d store-queue-stalls=%d direct-stores=%d greedy-overrides=%d\n",
			res.LBIC.PortSaturation, res.LBIC.StoreQueueStalls, res.LBIC.DirectStores, res.LBIC.GreedyOverrides)
	}
	if res.Verify != nil {
		fmt.Printf("verify:      ok (%d grants, %d load values, %d forwards, %d stores checked over %d cycles)\n",
			res.Verify.Grants, res.Verify.Loads, res.Verify.Forwards, res.Verify.Stores, res.Verify.Cycles)
	}
	if *verbose {
		fmt.Println()
		render(lbic.CPIStackTable(res))
		render(lbic.CPUStatsTable(res.CPU))
		render(lbic.MemStatsTable(res.Mem))
	}
	if *showMetric {
		fmt.Println()
		if err := res.Metrics.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// parsePipeline resolves -pipeline: SKIP:CYCLES[:EVERY].
func parsePipeline(spec string) (lbic.PipelineView, error) {
	var v lbic.PipelineView
	fields := strings.Split(spec, ":")
	if len(fields) < 2 || len(fields) > 3 {
		return v, fmt.Errorf("-pipeline %q: want SKIP:CYCLES[:EVERY]", spec)
	}
	dsts := []*uint64{&v.Skip, &v.Cycles, &v.Every}
	for i, f := range fields {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return v, fmt.Errorf("-pipeline %q: want SKIP:CYCLES[:EVERY]: %w", spec, err)
		}
		*dsts[i] = n
	}
	return v, nil
}

// parseGen resolves -gen: a catalog kind name, or an inline GenParams JSON
// object for tuned parameters.
func parseGen(spec string) (lbic.GenParams, error) {
	var p lbic.GenParams
	if strings.HasPrefix(strings.TrimSpace(spec), "{") {
		if err := json.Unmarshal([]byte(spec), &p); err != nil {
			return p, fmt.Errorf("parsing -gen: %w", err)
		}
	} else {
		p.Kind = spec
	}
	return p.Resolve()
}

// dumpTrace records the selected workload for insts instructions and writes
// it as an lbic-trace-stream/v1 file.
func dumpTrace(path string, prog *lbic.Program, gp lbic.GenParams, isGen bool, insts uint64) {
	if insts == 0 {
		fatal(fmt.Errorf("-trace-dump needs a positive -insts budget"))
	}
	var rt *lbic.RecordedTrace
	var err error
	if isGen {
		rt, err = lbic.RecordGeneratorTrace(gp, insts)
	} else {
		rt, err = lbic.RecordBenchmarkTrace(prog, insts)
	}
	if err != nil {
		fatal(err)
	}
	f, closeFn, err := create(path)
	if err != nil {
		fatal(err)
	}
	if err := lbic.WriteTraceStream(f, rt); err != nil {
		fatal(err)
	}
	closeFn()
	if path != "-" {
		fmt.Printf("wrote %s: %q, %d insts, %d trace bytes\n", path, rt.Name(), rt.Len(), rt.SizeBytes())
	}
}

func render(t *lbic.Table) {
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
}

// create opens path for writing; "-" selects stdout (with a no-op close).
func create(path string) (*os.File, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbicsim:", err)
	os.Exit(1)
}
