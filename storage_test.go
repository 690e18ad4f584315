package lbic_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lbic"
)

// Every run hands its machine storage (cache ways, the core's window
// structures, a batch's decode ring) to the next run once its results are
// assembled. The tests below pin both sides of that: nothing a Result
// reaches lives in recycled storage, and a warm run allocates only what is
// new per run.

// fixedInsts is the budget of a fixed-cost run: long enough to fill every
// pipeline stage once, short enough that setup dominates.
const fixedInsts = 64

// fixedRun returns a warm run of fixedInsts instructions of compress over a
// warm trace cache at K lanes, cycling through PortAxis: the fixed cost every
// table cell and served run pays before its first instruction.
func fixedRun(tb testing.TB, k int) func() {
	tb.Helper()
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		tb.Fatal(err)
	}
	axis := lbic.PortAxis()
	ports := make([]lbic.PortConfig, k)
	for i := range ports {
		ports[i] = axis[i%len(axis)]
	}
	cfgs := portConfigs(ports, fixedInsts, lbic.NewTraceCache(0))
	src := lbic.ProgramSource(prog)
	run := func() {
		_, errs, err := lbic.SimulateBatch(context.Background(), src, cfgs)
		if err != nil {
			tb.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				tb.Fatalf("lane %d: %v", i, err)
			}
		}
	}
	run() // records the trace
	return run
}

// TestWarmRunAllocBudget: once the pools hold a run's storage, a
// 64-instruction run allocates only its per-run objects (core and hierarchy
// structs, arbiter, metric objects, the Result). Without recycling a K=1 run
// allocates about 373 KiB and a K=8 batch about 4.4 MiB. The figure is the
// least of three trials, so a collection that empties the pools in one of
// them does not fail the test.
func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race, whose sync.Pool drops items at random")
	}
	for _, c := range []struct {
		k      int
		budget uint64
	}{{1, 64 << 10}, {8, 512 << 10}} {
		run := fixedRun(t, c.k)
		for i := 0; i < 3; i++ {
			run()
		}
		const n = 10
		per := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		if per > c.budget {
			t.Errorf("K=%d: a warm %d-instruction run allocates %d KiB, budget %d KiB",
				c.k, fixedInsts, per>>10, c.budget>>10)
		}
	}
}

// freshReportEnv makes TestRecycledStorageNeverReachesAResult, run in a
// child process, print run A's report and nothing else.
const freshReportEnv = "LBIC_TEST_FRESH_REPORT"

// recycleRunA is the run whose Result must survive everything after it.
func recycleRunA(t *testing.T) lbic.Result {
	t.Helper()
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.LBICPort(4, 2)
	cfg.MaxInsts = 5000
	cfg.Trace = lbic.NewTraceCache(0)
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecycledStorageNeverReachesAResult keeps run A's Result, then sends
// every kind of run through the pools: a live program at another cache
// geometry, a recorded trace, a generator, a K=8 batch, a batch with a
// Verify lane, a batch with a failing lane, and two runs at once. A's report,
// serialized again, must be byte-identical to its first serialization and
// to the same run in a fresh process.
func TestRecycledStorageNeverReachesAResult(t *testing.T) {
	if os.Getenv(freshReportEnv) != "" {
		os.Stdout.Write(reportBytes(t, recycleRunA(t)))
		return
	}
	resA := recycleRunA(t)
	first := reportBytes(t, resA)

	ctx := context.Background()
	prog, err := lbic.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	live := lbic.ProgramSource(prog)
	const insts = 3000
	tc := lbic.NewTraceCache(0)
	rt, err := lbic.RecordBenchmarkTrace(prog, insts)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(src lbic.Source, cfg lbic.Config) {
		t.Helper()
		if _, err := lbic.Simulate(ctx, src, cfg); err != nil {
			t.Error(err)
		}
	}
	batch := func(src lbic.Source, cfgs []lbic.Config) []error {
		t.Helper()
		_, errs, err := lbic.SimulateBatch(ctx, src, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return errs
	}
	axis := lbic.PortAxis()
	eight := make([]lbic.PortConfig, 8)
	for i := range eight {
		eight[i] = axis[i%len(axis)]
	}

	small := lbic.DefaultConfig()
	small.Port, small.MaxInsts = lbic.BankedPort(4), insts
	mem := lbic.DefaultMemParams()
	mem.L1.Size, mem.L1.Assoc = 16<<10, 2
	small.Mem = &mem
	simulate(live, small)

	traced := lbic.DefaultConfig()
	traced.Port = lbic.CodedPort(4, 1)
	simulate(lbic.TraceSource(rt), traced)

	gen := lbic.DefaultConfig()
	gen.Port, gen.MaxInsts = lbic.LBICPort(4, 2), insts
	simulate(lbic.GeneratorSource(lbic.GenParams{Kind: "zipf"}), gen)

	for i, err := range batch(live, portConfigs(eight, insts, tc)) {
		if err != nil {
			t.Errorf("K=8 lane %d: %v", i, err)
		}
	}

	verified := portConfigs([]lbic.PortConfig{lbic.LBICPort(4, 2), lbic.BankedPort(4)}, insts, nil)
	verified[0].Verify = true
	for i, err := range batch(live, verified) {
		if err != nil {
			t.Errorf("verified batch lane %d: %v", i, err)
		}
	}

	failing := portConfigs([]lbic.PortConfig{lbic.IdealPort(4), lbic.BankedPort(4)}, insts, tc)
	cpu := lbic.DefaultCPUConfig()
	cpu.MaxCycles = 100
	failing[1].CPU = &cpu
	if errs := batch(live, failing); errs[0] != nil || errs[1] == nil {
		t.Errorf("failing batch: lane errors %v, want only lane 1 to fail", errs)
	}

	var wg sync.WaitGroup
	for _, src := range []lbic.Source{live, lbic.TraceSource(rt)} {
		wg.Add(1)
		go func(src lbic.Source) {
			defer wg.Done()
			_, errs, err := lbic.SimulateBatch(ctx, src, portConfigs(eight, insts, tc))
			if err == nil {
				err = errs[0]
			}
			if err != nil {
				t.Error(err)
			}
		}(src)
	}
	wg.Wait()

	if again := reportBytes(t, resA); !bytes.Equal(again, first) {
		t.Errorf("run A's report changed after later runs reused the pools:\nfirst: %s\nagain: %s",
			firstDiff(first, again), firstDiff(again, first))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledStorageNeverReachesAResult$")
	cmd.Env = append(os.Environ(), freshReportEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fresh process: %v", err)
	}
	fresh, _, _ := strings.Cut(string(out), "PASS\n")
	if fresh != string(first) {
		t.Errorf("run A's report differs from the same run in a fresh process:\nhere:  %s\nfresh: %s",
			firstDiff(first, []byte(fresh)), firstDiff([]byte(fresh), first))
	}
}
