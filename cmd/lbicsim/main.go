// Command lbicsim runs one benchmark under one cache port organization and
// prints the measured statistics:
//
//	lbicsim -bench compress -port ideal -width 4
//	lbicsim -bench swim -port banked -banks 8
//	lbicsim -bench mgrid -port lbic -banks 4 -lineports 2 -insts 2000000
//	lbicsim -bench compress -port lbic -banks 4 -lineports 2 -json run.json
//	lbicsim -bench compress -port banked -banks 4 -metrics
//	lbicsim -bench compress -port lbic-4x2-greedy
//	lbicsim -bench compress -config run.json
//	lbicsim -bench compress -port lbic-4x2 -trace-out trace.json   # chrome://tracing
//	lbicsim -gen zipf -port banked -banks 4                        # synthetic stream
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
	"runtime"
	"runtime/pprof"
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
		configPath = flag.String("config", "", "load the full simulation Config from this JSON file (flags set explicitly still override)")
		portKind   = flag.String("port", "ideal", "port organization: ideal | repl | banked | banksq | mpb | lbic | coded, or a full name like lbic-4x2 or coded-4x1-spec")
		width      = flag.Int("width", 1, "port count (ideal, repl, mpb ports per bank)")
		banks      = flag.Int("banks", 4, "bank count (banked, banksq, mpb, lbic, coded)")
		linePorts  = flag.Int("lineports", 2, "per-bank line-buffer ports (lbic)")
		parity     = flag.Int("parity", 1, "XOR parity bank count (coded)")
		insts      = flag.Uint64("insts", 1_000_000, "instructions to simulate")
		timeout    = flag.Duration("timeout", 0, "abort the run after this wall-clock time (0 = none)")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		verbose    = flag.Bool("v", false, "print detailed CPU and memory statistics")
		verify     = flag.Bool("verify", false, "attach the correctness oracle: check every grant, value, and queue against sequential semantics")
		showMetric = flag.Bool("metrics", false, "print histogram and gauge tables (CPI stack, per-bank conflicts, ...)")
		jsonOut    = flag.String("json", "", "write the machine-readable run report to this file (- for stdout)")
		eventsOut  = flag.String("events", "", "write the structured JSONL event trace to this file (- for stdout)")
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
	if *configPath == "" || set["port"] || set["width"] || set["banks"] || set["lineports"] {
		cfg.Port = parsePort(*portKind, *width, *banks, *linePorts, *parity)
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
	port := cfg.Port

	exclusive := 0
	for _, s := range []string{*pattern, *genSpec, *traceIn} {
		if s != "" {
			exclusive++
		}
	}
	if exclusive > 1 {
		fatal(fmt.Errorf("-pattern, -gen and -trace-in are mutually exclusive"))
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

	fmt.Printf("benchmark:   %s\n", res.Benchmark)
	fmt.Printf("ports:       %s (peak %d accesses/cycle)\n", port.Name(), port.PeakWidth())
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

// parsePort resolves -port: a kind keyword combined with -width/-banks/
// -lineports/-parity, or a full compact name like "lbic-4x2-greedy" or
// "coded-4x1-spec" (the ParsePortName grammar).
func parsePort(kind string, width, banks, linePorts, parity int) lbic.PortConfig {
	switch strings.ToLower(kind) {
	case "ideal", "true":
		return lbic.IdealPort(width)
	case "repl", "replicated":
		return lbic.ReplicatedPort(width)
	case "bank", "banked":
		return lbic.BankedPort(banks)
	case "banksq":
		return lbic.BankedSQPort(banks)
	case "mpb":
		return lbic.MultiPortedBanksPort(banks, width)
	case "lbic":
		return lbic.LBICPort(banks, linePorts)
	case "coded":
		return lbic.CodedPort(banks, parity)
	}
	port, err := lbic.ParsePortName(kind)
	if err != nil {
		fatal(fmt.Errorf("unknown port organization %q", kind))
	}
	return port
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
