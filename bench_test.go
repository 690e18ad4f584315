package lbic_test

import (
	"context"
	"fmt"
	"testing"

	"lbic"
	"lbic/internal/experiments"
)

// The benchmarks below regenerate each table and figure of the paper at a
// reduced per-run instruction budget (go test -bench honors b.N, so one
// iteration is a full regeneration). For publication-scale numbers use
//
//	go run ./cmd/lbictables -all -insts 1000000
const benchInsts = 100_000

// BenchmarkTable2Characteristics regenerates Table 2: per-benchmark memory
// instruction fraction, store-to-load ratio and 32KB L1 miss rate.
func BenchmarkTable2Characteristics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.NewSweep(benchInsts))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-9s mem%%=%.1f s/l=%.2f miss=%.4f (paper %.1f/%.2f/%.4f)",
					r.Name, r.Stats.MemPct, r.Stats.StoreToLoad, r.Stats.MissRate,
					r.PaperMemPct, r.PaperStoreToLoad, r.PaperMissRate)
			}
		}
	}
}

// BenchmarkTable3PortModels regenerates Table 3: IPC of ideal (True),
// replicated (Repl) and multi-bank (Bank) designs at 1-16 ports, with the
// SPECint/SPECfp averages the paper reports. Each benchmark's port axis
// steps as one lane batch off a shared decode cursor.
func BenchmarkTable3PortModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Table3(experiments.NewSweep(benchInsts))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, kind := range []string{"True", "Repl", "Bank"} {
				b.Logf("SPECint Ave. %s: 2:%.2f 4:%.2f 8:%.2f 16:%.2f", kind,
					d.Average(kind, 2, experiments.IntNames()),
					d.Average(kind, 4, experiments.IntNames()),
					d.Average(kind, 8, experiments.IntNames()),
					d.Average(kind, 16, experiments.IntNames()))
			}
		}
	}
}

// BenchmarkFigure3RefStream regenerates Figure 3: the consecutive-reference
// mapping distribution over an infinite 4-bank cache.
func BenchmarkFigure3RefStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(experiments.NewSweep(benchInsts))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-9s same-line=%.1f%% diff-line=%.1f%%",
					r.Name, 100*r.Dist.SameLineFrac(), 100*r.Dist.DiffLineFrac())
			}
		}
	}
}

// BenchmarkTable4LBIC regenerates Table 4: IPC of the six MxN LBIC
// configurations.
func BenchmarkTable4LBIC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Table4(experiments.NewSweep(benchInsts))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range experiments.LBICConfigs {
				key := experiments.ConfigKey(c[0], c[1])
				b.Logf("%s: int ave %.3f, fp ave %.3f", key,
					d.Average(key, experiments.IntNames()),
					d.Average(key, experiments.FPNames()))
			}
		}
	}
}

// BenchmarkFigure4cScenario regenerates the paper's §5 worked example.
func BenchmarkFigure4cScenario(b *testing.B) {
	b.ReportAllocs()
	refs := []lbic.Ref{
		{Addr: 12*64 + 0, Store: true},
		{Addr: 10*64 + 32 + 4},
		{Addr: 10*64 + 32 + 8},
		{Addr: 12*64 + 12, Store: true},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			port lbic.PortConfig
			want int
		}{
			{lbic.ReplicatedPort(2), 3},
			{lbic.BankedPort(2), 2},
			{lbic.LBICPort(2, 2), 1},
		} {
			got, err := lbic.ScenarioCycles(c.port, refs)
			if err != nil {
				b.Fatal(err)
			}
			if got != c.want {
				b.Fatalf("%s: %d cycles, want %d", c.port.Name(), got, c.want)
			}
		}
	}
}

// BenchmarkAblationBankSelection sweeps the §3.2 bank selection functions.
func BenchmarkAblationBankSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBankSelection(experiments.NewSweep(benchInsts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCombiningPolicy compares the paper's leading-request LBIC
// against its §5.2 proposed greedy largest-group enhancement.
func BenchmarkAblationCombiningPolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCombiningPolicy(experiments.NewSweep(benchInsts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLSQDepth sweeps the LSQ depth under the 4x2 LBIC (§5.2:
// deeper LSQs help combining).
func BenchmarkAblationLSQDepth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLSQDepth(experiments.NewSweep(benchInsts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScanDepth sweeps the LSQ scheduling window under the
// banked cache (the §5 memory re-ordering effect).
func BenchmarkAblationScanDepth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScanDepth(experiments.NewSweep(benchInsts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// per wall-clock second) on a representative workload and configuration,
// with the instruction stream coming from the live emulator ("live") or
// replayed from a warm trace cache ("replay") — the sweep steady state.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tc := lbic.NewTraceCache(0)
	for _, bench := range []string{"compress", "mgrid"} {
		for _, port := range []lbic.PortConfig{lbic.IdealPort(4), lbic.LBICPort(4, 2), lbic.CodedPort(4, 1)} {
			for _, mode := range []string{"live", "replay"} {
				b.Run(fmt.Sprintf("%s/%s/%s", bench, port.Name(), mode), func(b *testing.B) {
					prog, err := lbic.BuildBenchmark(bench)
					if err != nil {
						b.Fatal(err)
					}
					cfg := lbic.DefaultConfig()
					cfg.Port = port
					cfg.MaxInsts = benchInsts
					if mode == "replay" {
						cfg.Trace = tc
						if _, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg); err != nil {
							b.Fatal(err) // record outside the timed region
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
						if err != nil {
							b.Fatal(err)
						}
						b.SetBytes(int64(res.Insts)) // "bytes" = instructions
					}
				})
			}
		}
	}
}

// BenchmarkRunFixed prices the fixed cost of a run: 64 instructions over a
// warm trace cache, alone (k1) and as an eight-lane batch (k8). Its
// allocations are what TestWarmRunAllocBudget bounds.
func BenchmarkRunFixed(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			run := fixedRun(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
