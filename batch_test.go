package lbic_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lbic"
)

// batchWidths are the lane counts every K-versus-Simulate suite covers; K=1
// is the same execution path as Simulate, K >= 2 shares one stream cursor.
var batchWidths = []int{1, 2, 4, 8}

// simulateReports runs each configuration alone through Simulate and
// returns its report bytes: the reference every batch lane must reproduce.
func simulateReports(t *testing.T, src lbic.Source, cfgs []lbic.Config) [][]byte {
	t.Helper()
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		res, err := lbic.Simulate(context.Background(), src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportBytes(t, res)
	}
	return want
}

// checkBatch runs K lanes cycling through cfgs as one SimulateBatch and
// compares every lane's report with want.
func checkBatch(t *testing.T, src lbic.Source, cfgs []lbic.Config, want [][]byte, k int) {
	t.Helper()
	lanes := make([]lbic.Config, k)
	for i := range lanes {
		lanes[i] = cfgs[i%len(cfgs)]
	}
	results, errs, err := lbic.SimulateBatch(context.Background(), src, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lanes {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		w := want[i%len(cfgs)]
		if got := reportBytes(t, results[i]); !bytes.Equal(w, got) {
			t.Errorf("lane %d (%s) diverges from Simulate:\nSimulate: %s\nlane:     %s",
				i, lanes[i].Port.Name(), firstDiff(w, got), firstDiff(got, w))
		}
	}
}

// portConfigs returns one configuration per port at the given budget.
func portConfigs(ports []lbic.PortConfig, insts uint64, tc *lbic.TraceCache) []lbic.Config {
	cfgs := make([]lbic.Config, len(ports))
	for i, port := range ports {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = insts
		cfg.Trace = tc
		cfgs[i] = cfg
	}
	return cfgs
}

// TestSimulateBatchMatchesScalar is the batched stepping core's load-bearing
// property: a lane batch of K configurations must produce, for every lane, a
// report byte-identical to Simulate of the same configuration — for every
// port organization, at K ∈ {1, 2, 4, 8}, both replaying the trace cache
// and driving a shared live emulator. The subtests run in parallel, so -race
// also covers concurrent batches sharing one trace cache.
func TestSimulateBatchMatchesScalar(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 30_000
	src := lbic.ProgramSource(prog)
	tc := lbic.NewTraceCache(0)
	want := simulateReports(t, src, portConfigs(equivPorts(), insts, nil))
	for _, k := range batchWidths {
		for _, replay := range []bool{true, false} {
			k, replay := k, replay
			name, cache := "live", (*lbic.TraceCache)(nil)
			if replay {
				name, cache = "replay", tc
			}
			t.Run(fmt.Sprintf("%s-k%d", name, k), func(t *testing.T) {
				t.Parallel()
				checkBatch(t, src, portConfigs(equivPorts(), insts, cache), want, k)
			})
		}
	}
}

// TestSimulateGeneratorBatchMatchesScalar: lanes sharing one synthetic
// stream must each match Simulate of the same configuration byte for byte.
func TestSimulateGeneratorBatchMatchesScalar(t *testing.T) {
	src := lbic.GeneratorSource(lbic.GenParams{Kind: "zipf"})
	ports := []lbic.PortConfig{
		lbic.IdealPort(4), lbic.BankedPort(4), lbic.LBICPort(4, 2), lbic.ReplicatedPort(2),
	}
	cfgs := portConfigs(ports, 20_000, nil)
	want := simulateReports(t, src, cfgs)
	for _, k := range batchWidths {
		k := k
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			t.Parallel()
			checkBatch(t, src, cfgs, want, k)
		})
	}
}

// TestSimulateBatchTraceMatchesScalar: lanes replaying one recorded trace
// must each match Simulate of the same configuration, whether the budget
// truncates the trace, is 0 (run to its end), or exceeds its length — the
// last two are clamped to the trace before the batch's shared-budget check.
func TestSimulateBatchTraceMatchesScalar(t *testing.T) {
	prog, err := lbic.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := lbic.RecordBenchmarkTrace(prog, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	src := lbic.TraceSource(rt)
	ports := []lbic.PortConfig{lbic.BankedPort(4), lbic.LBICPort(4, 2), lbic.IdealPort(2)}
	for _, budget := range []uint64{0, 5_000, rt.Len() + 10_000} {
		cfgs := portConfigs(ports, budget, nil)
		want := simulateReports(t, src, cfgs)
		for _, k := range batchWidths {
			budget, k := budget, k
			t.Run(fmt.Sprintf("insts%d-k%d", budget, k), func(t *testing.T) {
				t.Parallel()
				checkBatch(t, src, cfgs, want, k)
			})
		}
	}
}

// TestSimulateBatchVerified runs a lane batch with the oracle enabled on
// every lane: the shared live emulator must stop at exactly the instruction
// budget for each lane's final-memory check to hold.
func TestSimulateBatchVerified(t *testing.T) {
	prog, err := lbic.BuildBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	ports := []lbic.PortConfig{lbic.BankedPort(4), lbic.LBICPort(4, 2), lbic.IdealPort(2)}
	cfgs := make([]lbic.Config, len(ports))
	for i, port := range ports {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = 10_000
		cfg.Verify = true
		// A Verify lane must force the live-emulator source even when the
		// batch could otherwise replay.
		cfg.Trace = lbic.NewTraceCache(0)
		cfgs[i] = cfg
	}
	results, errs, err := lbic.SimulateBatch(context.Background(), lbic.ProgramSource(prog), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if results[i].Verify == nil {
			t.Errorf("lane %d carries no verification summary", i)
		}
		if results[i].TraceCache != nil {
			t.Errorf("lane %d replayed from the trace cache despite Verify", i)
		}
	}
	for i, cfg := range cfgs {
		if s := cfg.Trace.Stats(); s.Records != 0 || s.Hits != 0 {
			t.Errorf("lane %d touched the trace cache: %+v", i, s)
		}
	}
}

// TestSimulateBatchSingleLaneDelegates: a batch of one is exactly Simulate —
// the same Result and the same span tree, a lone "simulate <program>" span
// with no batch parent — while a wider batch parents one such span per lane
// under a single batch span.
func TestSimulateBatchSingleLaneDelegates(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	src := lbic.ProgramSource(prog)
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.BankedPort(4)
	cfg.MaxInsts = 5_000
	cfg.Trace = lbic.NewTraceCache(0)
	single, err := lbic.Simulate(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3} {
		tr := lbic.NewRequestTrace()
		cfgs := make([]lbic.Config, k)
		for i := range cfgs {
			cfgs[i] = cfg
		}
		results, errs, err := lbic.SimulateBatch(lbic.WithTrace(context.Background(), tr), src, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("k=%d lane %d: %v", k, i, errs[i])
			}
			if got, want := reportBytes(t, results[i]), reportBytes(t, single); !bytes.Equal(want, got) {
				t.Errorf("k=%d lane %d diverges from Simulate", k, i)
			}
		}

		spans := tr.Snapshot()
		roots, err := lbic.ValidateTraceTree(spans, true)
		if err != nil {
			t.Fatalf("k=%d: span tree invalid: %v", k, err)
		}
		var sims, batches int
		for _, sp := range spans {
			switch {
			case sp.Name == "simulate compress":
				sims++
				if sp.Attrs["trace_cache"] != "hit" || sp.Attrs["cycles"] == nil {
					t.Errorf("k=%d: simulate span attrs = %v, want a trace-cache hit with cycles", k, sp.Attrs)
				}
				if k > 1 && sp.Parent != roots[0] {
					t.Errorf("k=%d: simulate span is not a child of the batch span", k)
				}
			case strings.HasPrefix(sp.Name, "simulate batch "):
				batches++
				if want := fmt.Sprintf("simulate batch compress x%d", k); sp.Name != want || sp.ID != roots[0] {
					t.Errorf("k=%d: batch span %q (root %v), want root %q", k, sp.Name, sp.ID == roots[0], want)
				}
			default:
				t.Errorf("k=%d: unexpected span %q", k, sp.Name)
			}
		}
		wantBatches := 0
		if k > 1 {
			wantBatches = 1
		}
		if sims != k || batches != wantBatches {
			t.Errorf("k=%d: %d simulate and %d batch spans, want %d and %d", k, sims, batches, k, wantBatches)
		}
	}
}

// TestSimulateBatchRejectsBadConfigs covers the batch-wide invariants.
func TestSimulateBatchRejectsBadConfigs(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := lbic.ProgramSource(prog)
	if _, _, err := lbic.SimulateBatch(ctx, src, nil); err == nil || !strings.Contains(err.Error(), "no lanes") {
		t.Errorf("empty batch: got %v", err)
	}
	zero := lbic.DefaultConfig()
	zero.Port = lbic.BankedPort(4)
	zero.MaxInsts = 0
	if _, _, err := lbic.SimulateBatch(ctx, src, []lbic.Config{zero, zero}); err == nil || !strings.Contains(err.Error(), "MaxInsts") {
		t.Errorf("zero budget: got %v", err)
	}
	a, b := zero, zero
	a.MaxInsts, b.MaxInsts = 1_000, 2_000
	if _, _, err := lbic.SimulateBatch(ctx, src, []lbic.Config{a, b}); err == nil || !strings.Contains(err.Error(), "mixes instruction budgets") {
		t.Errorf("mixed budgets: got %v", err)
	}
	v := a
	v.Verify = true
	if _, _, err := lbic.SimulateBatch(ctx, lbic.GeneratorSource(lbic.GenParams{Kind: "zipf"}), []lbic.Config{a, v}); err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Errorf("generator Verify lane: got %v", err)
	}
	rt, err := lbic.RecordBenchmarkTrace(prog, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget clamps to the trace's length; 1,000 truncates it.
	if _, _, err := lbic.SimulateBatch(ctx, lbic.TraceSource(rt), []lbic.Config{zero, a}); err == nil || !strings.Contains(err.Error(), "mixes instruction budgets") {
		t.Errorf("trace mixed budgets: got %v", err)
	}
	if _, err := lbic.Simulate(ctx, lbic.Source{}, a); err == nil || !strings.Contains(err.Error(), "empty Source") {
		t.Errorf("empty source: got %v", err)
	}
}
