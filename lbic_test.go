package lbic_test

import (
	"context"
	"testing"

	"lbic"
)

// testInsts keeps integration runs quick; claims tested here are about
// relative shapes, which settle well before this budget.
const testInsts = 150_000

func simulate(t *testing.T, bench string, port lbic.PortConfig) lbic.Result {
	t.Helper()
	prog, err := lbic.BuildBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = testInsts
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBenchmarkRegistry(t *testing.T) {
	names := lbic.BenchmarkNames()
	if len(names) != 10 {
		t.Fatalf("benchmarks = %v, want 10", names)
	}
	if _, err := lbic.BuildBenchmark("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
	infos := lbic.Benchmarks()
	ints, fps := 0, 0
	for _, in := range infos {
		switch in.Suite {
		case "int":
			ints++
		case "fp":
			fps++
		default:
			t.Errorf("%s: unknown suite %q", in.Name, in.Suite)
		}
	}
	if ints != 5 || fps != 5 {
		t.Errorf("suites = %d int + %d fp, want 5+5", ints, fps)
	}
}

func TestPortConfigNames(t *testing.T) {
	cases := map[string]lbic.PortConfig{
		"true-4":   lbic.IdealPort(4),
		"repl-2":   lbic.ReplicatedPort(2),
		"bank-8":   lbic.BankedPort(8),
		"lbic-4x2": lbic.LBICPort(4, 2),
	}
	for want, port := range cases {
		if got := port.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := simulate(t, "compress", lbic.IdealPort(2))
	b := simulate(t, "compress", lbic.IdealPort(2))
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Errorf("nondeterministic: %v vs %v cycles", a.Cycles, b.Cycles)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	prog, err := lbic.BuildBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.PortConfig{Kind: lbic.Banked, Banks: 3}
	if _, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg); err == nil {
		t.Error("expected error for 3 banks")
	}
	cfg = lbic.DefaultConfig()
	cfg.Port = lbic.PortConfig{Kind: lbic.PortKind(99)}
	if _, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg); err == nil {
		t.Error("expected error for unknown port kind")
	}
}

// §3.1: adding the second ideal port yields a large gain — the paper reports
// +89%/+92% on average; we require a clearly super-50% jump.
func TestSecondIdealPortGain(t *testing.T) {
	for _, bench := range []string{"compress", "li", "mgrid", "swim"} {
		one := simulate(t, bench, lbic.IdealPort(1)).IPC
		two := simulate(t, bench, lbic.IdealPort(2)).IPC
		if two < 1.5*one {
			t.Errorf("%s: 1->2 ideal ports %.2f -> %.2f, want >= +50%%", bench, one, two)
		}
	}
}

// §3.1: ideal port scaling is monotone and saturates: the 8->16 step is far
// smaller than the 1->2 step.
func TestIdealScalingSaturates(t *testing.T) {
	for _, bench := range []string{"compress", "li", "swim"} {
		var ipc []float64
		for _, p := range []int{1, 2, 4, 8, 16} {
			ipc = append(ipc, simulate(t, bench, lbic.IdealPort(p)).IPC)
		}
		for i := 1; i < len(ipc); i++ {
			if ipc[i] < ipc[i-1]*0.98 {
				t.Errorf("%s: IPC dropped adding ports: %v", bench, ipc)
			}
		}
		first := ipc[1] - ipc[0]
		last := ipc[4] - ipc[3]
		if last > first/2 {
			t.Errorf("%s: no saturation: steps %v", bench, ipc)
		}
	}
}

// §3.1: replication trails ideal because stores broadcast; the degradation
// is big for store-heavy compress and negligible for mgrid (ratio 0.04).
func TestReplicationStorePenalty(t *testing.T) {
	idealC := simulate(t, "compress", lbic.IdealPort(4)).IPC
	replC := simulate(t, "compress", lbic.ReplicatedPort(4)).IPC
	if replC > 0.8*idealC {
		t.Errorf("compress: repl-4 %.2f vs true-4 %.2f: expected a clear store penalty", replC, idealC)
	}
	idealM := simulate(t, "mgrid", lbic.IdealPort(4)).IPC
	replM := simulate(t, "mgrid", lbic.ReplicatedPort(4)).IPC
	if replM < 0.85*idealM {
		t.Errorf("mgrid: repl-4 %.2f vs true-4 %.2f: store-poor mgrid should track ideal", replM, idealM)
	}
}

// §3.2: multi-banking overtakes replication as ports grow for store-heavy
// programs (the paper names compress and gcc).
func TestBankingOvertakesReplication(t *testing.T) {
	for _, bench := range []string{"compress", "gcc"} {
		bank := simulate(t, bench, lbic.BankedPort(8)).IPC
		repl := simulate(t, bench, lbic.ReplicatedPort(8)).IPC
		if bank <= repl {
			t.Errorf("%s: bank-8 %.2f <= repl-8 %.2f, paper expects banking ahead", bench, bank, repl)
		}
	}
}

// §3.2: bank conflicts keep the banked design below ideal for conflict-heavy
// programs (mgrid is the paper's clearest case at 4 banks).
func TestBankConflictsVisible(t *testing.T) {
	ideal := simulate(t, "mgrid", lbic.IdealPort(4)).IPC
	res := simulate(t, "mgrid", lbic.BankedPort(4))
	if res.IPC > 0.9*ideal {
		t.Errorf("mgrid: bank-4 %.2f vs true-4 %.2f: expected visible conflicts", res.IPC, ideal)
	}
	if res.BankConflicts == 0 {
		t.Error("bank conflict counter empty")
	}
}

// §6: the LBIC matches or beats the comparable banked design on every
// benchmark (combining only removes conflicts).
func TestLBICBeatsBankedEverywhere(t *testing.T) {
	for _, bench := range lbic.BenchmarkNames() {
		bank := simulate(t, bench, lbic.BankedPort(4)).IPC
		lb := simulate(t, bench, lbic.LBICPort(4, 2)).IPC
		if lb < 0.97*bank {
			t.Errorf("%s: lbic-4x2 %.2f < bank-4 %.2f", bench, lb, bank)
		}
	}
}

// §6: a 4x4 LBIC performs at least as well as the 8-bank cache on average —
// the paper's headline cost argument (Table 4 vs Table 3).
func TestLBIC4x4VersusEightBanks(t *testing.T) {
	var lbSum, bankSum float64
	for _, bench := range lbic.BenchmarkNames() {
		lbSum += simulate(t, bench, lbic.LBICPort(4, 4)).IPC
		bankSum += simulate(t, bench, lbic.BankedPort(8)).IPC
	}
	if lbSum < 0.95*bankSum {
		t.Errorf("lbic-4x4 average %.2f clearly below bank-8 average %.2f", lbSum/10, bankSum/10)
	}
}

// §6: SPECfp gains more from doubling N (combining) than SPECint does —
// the paper's Table 4 observation about where combining pays.
func TestCombiningHelpsFP(t *testing.T) {
	gain := func(bench string) float64 {
		n2 := simulate(t, bench, lbic.LBICPort(4, 2)).IPC
		n4 := simulate(t, bench, lbic.LBICPort(4, 4)).IPC
		return n4 / n2
	}
	// mgrid and su2cor are the paper's strongest combining beneficiaries.
	if g := gain("mgrid"); g < 1.1 {
		t.Errorf("mgrid: 4x2 -> 4x4 gain %.3f, want >= 1.1", g)
	}
}

// LBIC statistics are populated and coherent.
func TestLBICResultStats(t *testing.T) {
	res := simulate(t, "li", lbic.LBICPort(4, 2))
	if res.LBIC == nil {
		t.Fatal("LBIC stats missing")
	}
	if res.LBIC.Combined == 0 {
		t.Error("no combined accesses on li (heavy same-line locality)")
	}
	granted := res.LBIC.Leading + res.LBIC.Combined
	if granted != res.CPU.PortGrants {
		t.Errorf("lbic grants %d != cpu port grants %d", granted, res.CPU.PortGrants)
	}
}

// Figure 3 distributions: the same-bank skew the paper reports, and the
// per-program signatures it calls out.
func TestRefStreamSkew(t *testing.T) {
	sameBank := func(bench string) lbic.Distribution {
		prog, err := lbic.BuildBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		d, err := lbic.AnalyzeRefStream(context.Background(), prog, lbic.RefStreamOptions{Banks: 4, LineSize: 32, Insts: testInsts})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Uniform would be 25% same-bank; every benchmark should exceed it.
	for _, bench := range lbic.BenchmarkNames() {
		if d := sameBank(bench); d.SameBankFrac() < 0.3 {
			t.Errorf("%s: same-bank %.2f, want the paper's >0.3 skew", bench, d.SameBankFrac())
		}
	}
	// gcc, li, perl: >40%% of consecutive references hit the same line.
	for _, bench := range []string{"gcc", "li", "perl"} {
		if d := sameBank(bench); d.SameLineFrac() < 0.4 {
			t.Errorf("%s: same-line %.2f, paper reports > 0.4", bench, d.SameLineFrac())
		}
	}
	// swim: the suite's largest same-bank-different-line component.
	dSwim := sameBank("swim")
	for _, bench := range []string{"gcc", "li", "perl", "compress"} {
		if d := sameBank(bench); d.DiffLineFrac() > dSwim.DiffLineFrac() {
			t.Errorf("%s diff-line %.2f exceeds swim's %.2f", bench, d.DiffLineFrac(), dSwim.DiffLineFrac())
		}
	}
}

// Figure 4c as public API: the paper's hand-computed cycle counts.
func TestScenarioCyclesFigure4c(t *testing.T) {
	refs := []lbic.Ref{
		{Addr: 12*64 + 0, Store: true},
		{Addr: 10*64 + 32 + 4},
		{Addr: 10*64 + 32 + 8},
		{Addr: 12*64 + 12, Store: true},
	}
	cases := []struct {
		port lbic.PortConfig
		want int
	}{
		{lbic.ReplicatedPort(2), 3},
		{lbic.BankedPort(2), 2},
		{lbic.LBICPort(2, 2), 1},
	}
	for _, c := range cases {
		got, err := lbic.ScenarioCycles(c.port, refs)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: %d cycles, want %d", c.port.Name(), got, c.want)
		}
	}
}

// Custom programs through the public builder run end to end.
func TestCustomProgram(t *testing.T) {
	b := lbic.NewBuilder("custom")
	data := b.Alloc(1024, 64)
	r := lbic.R
	b.Li(r(1), int64(data))
	b.Li(r(2), 0)
	b.Li(r(3), 100)
	b.Label("loop")
	b.Ld(r(4), r(1), 0)
	b.Add(r(2), r(2), r(4))
	b.Addi(r(3), r(3), -1)
	b.Bne(r(3), r(0), "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 404 {
		t.Errorf("committed %d instructions, want 404", res.Insts)
	}
}
