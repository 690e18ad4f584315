package lbic_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lbic"
)

func TestPatternsFacade(t *testing.T) {
	pats := lbic.Patterns()
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	prog, err := lbic.BuildPattern("same-line-burst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.LBICPort(4, 4)
	cfg.MaxInsts = 60_000
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := cfg
	bank.Port = lbic.BankedPort(4)
	resBank, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), bank)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC < 1.5*resBank.IPC {
		t.Errorf("combining on same-line bursts: lbic %.2f vs bank %.2f, want >= 1.5x", res.IPC, resBank.IPC)
	}
	if _, err := lbic.BuildPattern("nonesuch"); err == nil {
		t.Error("unknown pattern should error")
	}
}

func TestBankStridePatternDefeatsBitSelection(t *testing.T) {
	prog, err := lbic.BuildPattern("bank-stride")
	if err != nil {
		t.Fatal(err)
	}
	run := func(port lbic.PortConfig) float64 {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = 60_000
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	bit := run(lbic.BankedPort(4))
	xor := func() float64 {
		p := lbic.BankedPort(4)
		p.Selector = lbic.XorFold
		return run(p)
	}()
	one := run(lbic.IdealPort(1))
	if bit > 1.2*one {
		t.Errorf("bank-stride under bit selection %.2f should collapse near single-port %.2f", bit, one)
	}
	if xor < 2*bit {
		t.Errorf("xor-fold %.2f should recover the pathological stride (bit %.2f)", xor, bit)
	}
}

func TestCustomPort(t *testing.T) {
	// A trivial custom arbiter: grant only the oldest request per cycle.
	factory := func(lineSize int) (lbic.Arbiter, error) {
		return oldestOnly{}, nil
	}
	prog, err := lbic.BuildBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.CustomPort("oldest-only", factory)
	cfg.MaxInsts = 40_000
	if cfg.Port.Name() != "custom-oldest-only" {
		t.Errorf("Name() = %q", cfg.Port.Name())
	}
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Oldest-only behaves like a single ideal port.
	one := cfg
	one.Port = lbic.IdealPort(1)
	resOne, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), one)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != resOne.Cycles {
		t.Errorf("oldest-only custom arbiter %d cycles != true-1 %d", res.Cycles, resOne.Cycles)
	}
}

type oldestOnly struct{}

func (oldestOnly) Name() string   { return "oldest-only" }
func (oldestOnly) PeakWidth() int { return 1 }
func (oldestOnly) Grant(_ uint64, ready []lbic.Request, dst []int) []int {
	if len(ready) == 0 {
		return dst
	}
	return append(dst, 0)
}

func TestVirtualPortFacade(t *testing.T) {
	a := simulate(t, "li", lbic.VirtualPort(2))
	b := simulate(t, "li", lbic.IdealPort(2))
	if a.Cycles != b.Cycles {
		t.Errorf("virt-2 %d cycles != true-2 %d cycles", a.Cycles, b.Cycles)
	}
}

func TestGreedyPortFacade(t *testing.T) {
	p := lbic.LBICPort(4, 2)
	p.Greedy = true
	res := simulate(t, "gcc", p)
	if res.LBIC == nil {
		t.Fatal("missing LBIC stats")
	}
	base := simulate(t, "gcc", lbic.LBICPort(4, 2))
	// The §5.2 enhancement should help gcc (queued same-line groups behind
	// strided leaders) — this locks in the ablation's headline result.
	if res.IPC < base.IPC {
		t.Errorf("greedy %.2f below leading %.2f on gcc", res.IPC, base.IPC)
	}
}

func TestCharacterizeWithFacade(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	small, err := lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{
		Insts: 80_000, Geom: lbic.Geometry{Size: 8 << 10, LineSize: 32, Assoc: 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{
		Insts: 80_000, Geom: lbic.Geometry{Size: 128 << 10, LineSize: 32, Assoc: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if small.MissRate <= big.MissRate {
		t.Errorf("8KB miss %.4f should exceed 128KB miss %.4f", small.MissRate, big.MissRate)
	}
}

func TestTraceSimulationFacade(t *testing.T) {
	prog, err := lbic.BuildBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.BankedPort(4)
	cfg.MaxInsts = 5_000
	var sb strings.Builder
	res, err := lbic.TraceSimulation(prog, cfg, &sb, lbic.TraceOptions{MaxCycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 5_000 {
		t.Errorf("insts = %d", res.Insts)
	}
	out := sb.String()
	if !strings.Contains(out, "cycle") || !strings.Contains(out, "IPC") {
		t.Errorf("trace output malformed:\n%s", out)
	}
	// MaxCycles bounds the printed lines, not the run.
	if lines := strings.Count(out, "\n"); lines > 30 {
		t.Errorf("trace printed %d lines, want bounded", lines)
	}
}

func TestAssembleFacadeErrors(t *testing.T) {
	if _, err := lbic.Assemble("bad", "frobnicate r1\nhalt"); err == nil {
		t.Error("expected assembly error")
	}
	prog, err := lbic.Assemble("ok", "li r1, 5\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Code) != 2 {
		t.Errorf("code length = %d", len(prog.Code))
	}
}

func TestSelectorNamesFacade(t *testing.T) {
	p := lbic.BankedPort(4)
	p.Selector = lbic.WordInterleave
	if got := p.Name(); got != "bank-4-word-interleave" {
		t.Errorf("Name() = %q", got)
	}
	if fmt.Sprint(lbic.XorFold) != "xor-fold" {
		t.Error("selector string wrong")
	}
}

func TestBankedSQPortFacade(t *testing.T) {
	// Store queues must help the store-heavy integer codes over plain
	// banking, and the full LBIC must not be worse than plain banking.
	bank := simulate(t, "compress", lbic.BankedPort(4))
	sq := simulate(t, "compress", lbic.BankedSQPort(4))
	if sq.IPC < 1.05*bank.IPC {
		t.Errorf("banksq-4 %.2f should clearly beat bank-4 %.2f on compress", sq.IPC, bank.IPC)
	}
	if got := lbic.BankedSQPort(4).Name(); got != "banksq-4" {
		t.Errorf("Name() = %q", got)
	}
	if got := lbic.BankedStoreQueue.String(); got != "BankSQ" {
		t.Errorf("kind = %q", got)
	}
}

// TestConvergence guards the EXPERIMENTS.md claim that stream statistics
// converge within ~10^5 references: quadrupling the instruction budget moves
// IPC by only a few percent.
func TestConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence check is slow")
	}
	for _, bench := range []string{"compress", "swim"} {
		prog, err := lbic.BuildBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		run := func(insts uint64) float64 {
			cfg := lbic.DefaultConfig()
			cfg.Port = lbic.IdealPort(4)
			cfg.MaxInsts = insts
			res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.IPC
		}
		short, long := run(150_000), run(600_000)
		diff := (long - short) / long
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.06 {
			t.Errorf("%s: IPC moved %.1f%% from 150K to 600K insts (%.3f -> %.3f)",
				bench, 100*diff, short, long)
		}
	}
}

// Per-kernel shape locks: each benchmark's signature response to ports, so a
// workload regression that changes the story fails loudly.
func TestKernelShapeLocks(t *testing.T) {
	ipc := func(bench string, port lbic.PortConfig) float64 {
		return simulate(t, bench, port).IPC
	}
	// mgrid: the suite's biggest ideal-port winner (paper: 2.67 -> 18.6).
	if gain := ipc("mgrid", lbic.IdealPort(8)) / ipc("mgrid", lbic.IdealPort(1)); gain < 4 {
		t.Errorf("mgrid 1->8 ideal gain %.2fx, want >= 4x", gain)
	}
	// mgrid: bank conflicts bite at 4 banks, combining recovers (Table 4).
	bank := ipc("mgrid", lbic.BankedPort(4))
	comb := ipc("mgrid", lbic.LBICPort(4, 4))
	if comb < 1.5*bank {
		t.Errorf("mgrid 4x4 LBIC %.2f vs bank-4 %.2f, want >= 1.5x", comb, bank)
	}
	// compress: replication plateaus far below ideal (store ratio 0.81).
	if r := ipc("compress", lbic.ReplicatedPort(8)) / ipc("compress", lbic.IdealPort(8)); r > 0.8 {
		t.Errorf("compress repl-8/true-8 = %.2f, want < 0.8", r)
	}
	// li: 4-bank cache close to its ideal-4 (paper: 5.84 vs 6.58), unlike mgrid.
	if r := ipc("li", lbic.BankedPort(4)) / ipc("li", lbic.IdealPort(4)); r < 0.7 {
		t.Errorf("li bank-4/true-4 = %.2f, want >= 0.7", r)
	}
	// swim: combining recovers nearly all of ideal at 4 banks (Table 4).
	if r := ipc("swim", lbic.LBICPort(4, 4)) / ipc("swim", lbic.IdealPort(8)); r < 0.9 {
		t.Errorf("swim 4x4/true-8 = %.2f, want >= 0.9", r)
	}
}
