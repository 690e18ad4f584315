package cpu

import (
	"strings"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/core"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

func corelbic(m, n int) (ports.Arbiter, error) {
	return core.New(core.Config{Banks: m, LinePorts: n, LineSize: 32})
}

func r(i int) isa.Reg { return isa.R(i) }

// alu returns a 1-cycle integer op dst = src1 (op) src2.
func alu(dst, src1, src2 isa.Reg) trace.Dyn {
	return trace.Dyn{Op: isa.Add, Class: isa.ClassIntALU, Dst: dst, Src1: src1, Src2: src2}
}

func load(dst, base isa.Reg, addr uint64) trace.Dyn {
	return trace.Dyn{Op: isa.Ld, Class: isa.ClassLoad, Dst: dst, Src1: base, Addr: addr, Size: 8}
}

func store(val, base isa.Reg, addr uint64) trace.Dyn {
	return trace.Dyn{Op: isa.Sd, Class: isa.ClassStore, Src1: base, Src2: val, Addr: addr, Size: 8}
}

func runStream(t *testing.T, dyns []trace.Dyn, arb ports.Arbiter, mut func(*Config)) Stats {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(trace.NewSliceStream(dyns), hier, arb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func ideal(t *testing.T, p int) ports.Arbiter {
	t.Helper()
	a, err := ports.NewIdeal(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDependencyChainThroughput(t *testing.T) {
	// A chain of N dependent 1-cycle adds must take ~N cycles (1 IPC with
	// back-to-back bypass), not 2N.
	const n = 100
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1), r(1), r(2))
	}
	s := runStream(t, dyns, ideal(t, 1), nil)
	if s.Committed != n {
		t.Fatalf("committed = %d", s.Committed)
	}
	if s.Cycles < n || s.Cycles > n+10 {
		t.Errorf("chain of %d adds took %d cycles, want ~%d", n, s.Cycles, n)
	}
}

func TestIndependentOpsIssueWide(t *testing.T) {
	// 640 independent adds at issue width 64 should take ~10 cycles + small
	// pipeline overhead.
	const n = 640
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1+i%16), r(17+i%8), r(25+i%4))
	}
	s := runStream(t, dyns, ideal(t, 1), nil)
	if s.Cycles > 20 {
		t.Errorf("%d independent adds took %d cycles, want ~10-15", n, s.Cycles)
	}
}

func TestMulLatency(t *testing.T) {
	// A chain of N multiplies (latency 3) takes ~3N cycles.
	const n = 50
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = trace.Dyn{Op: isa.Mul, Class: isa.ClassIntMul, Dst: r(1), Src1: r(1), Src2: r(2)}
	}
	s := runStream(t, dyns, ideal(t, 1), nil)
	if s.Cycles < 3*n || s.Cycles > 3*n+10 {
		t.Errorf("mul chain took %d cycles, want ~%d", s.Cycles, 3*n)
	}
}

func TestDivUnpipelined(t *testing.T) {
	// With a single divider, independent divides serialize at 12 cycles each.
	const n = 10
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = trace.Dyn{Op: isa.Div, Class: isa.ClassIntDiv, Dst: r(1 + i), Src1: r(20), Src2: r(21)}
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.FUCount[isa.ClassIntDiv] = 1
	})
	if s.Cycles < 12*n {
		t.Errorf("independent divs on one unpipelined divider took %d cycles, want >= %d", s.Cycles, 12*n)
	}
	// With plenty of dividers they overlap.
	s2 := runStream(t, dyns, ideal(t, 1), nil)
	if s2.Cycles > 30 {
		t.Errorf("parallel divs took %d cycles, want ~13", s2.Cycles)
	}
}

func TestSinglePortSerializesLoads(t *testing.T) {
	// 200 independent loads (all hitting after the first line fill) at one
	// port take >= ~200 cycles; at 4 ideal ports about a quarter of that.
	const n = 200
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = load(r(1+i%8), r(20), 0x10000+uint64(8*(i%4))) // one hot line
	}
	s1 := runStream(t, dyns, ideal(t, 1), nil)
	if s1.Cycles < n {
		t.Errorf("1-port: %d loads in %d cycles (impossible, <1 per cycle)", n, s1.Cycles)
	}
	s4 := runStream(t, dyns, ideal(t, 4), nil)
	if s4.Cycles > s1.Cycles/2 {
		t.Errorf("4-port %d cycles not much better than 1-port %d", s4.Cycles, s1.Cycles)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// load -> dependent add: AGU (1) + cache hit (1) + add (1); a chain of
	// such pairs paces at ~3 cycles per pair.
	const n = 60
	var dyns []trace.Dyn
	for i := 0; i < n; i++ {
		dyns = append(dyns,
			load(r(1), r(1), 0x10000), // depends on previous add via r1
			alu(r(1), r(1), r(2)),
		)
	}
	s := runStream(t, dyns, ideal(t, 4), nil)
	perPair := float64(s.Cycles) / n
	if perPair < 2.5 || perPair > 3.6 {
		t.Errorf("load-use chain paced %.2f cycles/pair, want ~3", perPair)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// Independent (store, load) pairs to the same address: every load should
	// forward from the LSQ and never consume a cache port.
	const n = 50
	var dyns []trace.Dyn
	for i := 0; i < n; i++ {
		addr := 0x20000 + uint64(64*i)
		dyns = append(dyns,
			store(r(2), r(3), addr),
			load(r(4+i%8), r(3), addr),
		)
	}
	s := runStream(t, dyns, ideal(t, 8), nil)
	if s.Forwards != n {
		t.Errorf("forwards = %d, want %d", s.Forwards, n)
	}
}

func TestPartialOverlapBlocksForwarding(t *testing.T) {
	// A 4-byte store followed by an 8-byte load over it cannot forward; the
	// load waits until the store is written to the cache.
	dyns := []trace.Dyn{
		{Op: isa.Sw, Class: isa.ClassStore, Src1: r(1), Src2: r(2), Addr: 0x30000, Size: 4},
		{Op: isa.Ld, Class: isa.ClassLoad, Dst: r(3), Src1: r(1), Addr: 0x30000, Size: 8},
	}
	s := runStream(t, dyns, ideal(t, 2), nil)
	if s.Forwards != 0 {
		t.Errorf("partial overlap forwarded (%d), must not", s.Forwards)
	}
	if s.ForwardWaits == 0 {
		t.Error("load should have waited on the partial store")
	}
	if s.Committed != 2 {
		t.Errorf("committed = %d", s.Committed)
	}
}

func TestLoadWaitsForUnknownStoreAddress(t *testing.T) {
	// The store's address depends on a long divide chain; the younger load
	// (different address) must wait for the store address to be known.
	dyns := []trace.Dyn{
		{Op: isa.Div, Class: isa.ClassIntDiv, Dst: r(1), Src1: r(2), Src2: r(3)},            // 12 cycles
		{Op: isa.Div, Class: isa.ClassIntDiv, Dst: r(1), Src1: r(1), Src2: r(3)},            // +12
		{Op: isa.Sd, Class: isa.ClassStore, Src1: r(1), Src2: r(2), Addr: 0x40000, Size: 8}, // addr after divs
		load(r(5), r(6), 0x50000),
	}
	s := runStream(t, dyns, ideal(t, 2), nil)
	if s.OrderingStalls == 0 {
		t.Error("load should have stalled on the unknown store address")
	}
	if s.Cycles < 24 {
		t.Errorf("cycles = %d, want >= 24 (div chain gates the store address)", s.Cycles)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A tiny store buffer with a single port and store-heavy traffic must
	// stall commit at some point but still complete.
	const n = 120
	var dyns []trace.Dyn
	for i := 0; i < n; i++ {
		dyns = append(dyns, store(r(2), r(3), 0x10000+uint64(8*i)%256))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.StoreBufferSize = 2
	})
	if s.Committed != n {
		t.Fatalf("committed = %d, want %d", s.Committed, n)
	}
	if s.CommitStallStoreBuf == 0 {
		t.Error("expected store-buffer commit stalls")
	}
}

func TestRUUWindowLimit(t *testing.T) {
	// With a 4-entry window, independent adds cannot exceed ~4 IPC even at
	// issue width 64.
	const n = 400
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1+i%16), r(20), r(21))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.RUUSize = 4
		c.LSQSize = 4
	})
	if ipc := s.IPC(); ipc > 4.01 {
		t.Errorf("IPC %.2f exceeds window bound 4", ipc)
	}
	if s.DispatchStallRUU == 0 {
		t.Error("expected RUU dispatch stalls")
	}
}

func TestLSQLimit(t *testing.T) {
	const n = 300
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = load(r(1+i%8), r(20), 0x10000)
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.LSQSize = 2
	})
	if s.DispatchStallLSQ == 0 {
		t.Error("expected LSQ dispatch stalls")
	}
	if s.Committed != n {
		t.Fatalf("committed = %d", s.Committed)
	}
}

func TestBankConflictsSlowBankedCache(t *testing.T) {
	// All loads to the same bank, different lines: a 4-bank cache degrades to
	// one access per cycle, while 4 ideal ports sustain ~4.
	const n = 400
	mk := func() []trace.Dyn {
		dyns := make([]trace.Dyn, n)
		for i := range dyns {
			// Same bank 0 (bank bits = line addr low bits), lines 128B apart.
			dyns[i] = load(r(1+i%8), r(20), 0x10000+uint64(i%8)*128)
		}
		return dyns
	}
	bank, err := ports.NewBanked(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	sBank := runStream(t, mk(), bank, nil)
	sIdeal := runStream(t, mk(), ideal(t, 4), nil)
	if sBank.Cycles < 2*sIdeal.Cycles {
		t.Errorf("bank-conflict stream: banked %d cycles vs ideal %d; expected >=2x gap",
			sBank.Cycles, sIdeal.Cycles)
	}
	if bank.Conflicts == 0 {
		t.Error("expected bank conflicts")
	}
}

func TestReplicatedStoreSerialization(t *testing.T) {
	// Alternating store/load traffic: replicated ports serialize on stores,
	// ideal does not.
	const n = 300
	mk := func() []trace.Dyn {
		var dyns []trace.Dyn
		for i := 0; i < n/2; i++ {
			dyns = append(dyns,
				store(r(2), r(3), 0x10000+uint64(32*(i%16))),
				load(r(4+i%4), r(3), 0x14000+uint64(32*(i%16))),
			)
		}
		return dyns
	}
	repl, err := ports.NewReplicated(4)
	if err != nil {
		t.Fatal(err)
	}
	sRepl := runStream(t, mk(), repl, nil)
	sIdeal := runStream(t, mk(), ideal(t, 4), nil)
	if float64(sRepl.Cycles) < 1.3*float64(sIdeal.Cycles) {
		t.Errorf("replicated %d cycles vs ideal %d; expected clear store serialization",
			sRepl.Cycles, sIdeal.Cycles)
	}
	if repl.StoreCycles == 0 {
		t.Error("expected store-exclusive cycles")
	}
}

func TestMaxInstsStopsDispatch(t *testing.T) {
	dyns := make([]trace.Dyn, 100)
	for i := range dyns {
		dyns[i] = alu(r(1+i%8), r(20), r(21))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.MaxInsts = 40
	})
	if s.Committed != 40 || s.Dispatched != 40 {
		t.Errorf("committed/dispatched = %d/%d, want 40/40", s.Committed, s.Dispatched)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	dyns := make([]trace.Dyn, 10000)
	for i := range dyns {
		dyns[i] = load(r(1), r(2), 0x10000+uint64(i)*64)
	}
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil {
		t.Fatal("expected MaxCycles error")
	}
	// The error names the head's kind and state, as HeadState reports it.
	head := c.HeadState()
	if !strings.HasPrefix(head, "load/") || !strings.Contains(err.Error(), "head "+head+")") {
		t.Errorf("MaxCycles error %q does not name the head state %q", err, head)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.RUUSize = 0 },
		func(c *Config) { c.LSQSize = c.RUUSize + 1 },
		func(c *Config) { c.StoreBufferSize = 0 },
		func(c *Config) { c.MemScanDepth = 0 },
		func(c *Config) { c.FUCount[isa.ClassIntALU] = -1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

// A zero unit count takes Table 1's 64: a configuration that leaves FUCount
// unset runs exactly like the default one instead of never issuing.
func TestZeroFUCountDefaults(t *testing.T) {
	dyns := []trace.Dyn{
		load(r(1), r(2), 0x10000),
		alu(r(3), r(1), r(1)),
		store(r(3), r(2), 0x10008),
		alu(r(4), r(3), r(1)),
	}
	want := runStream(t, dyns, ideal(t, 2), nil)
	got := runStream(t, dyns, ideal(t, 2), func(c *Config) { c.FUCount = [isa.NumClasses]int{} })
	if got != want {
		t.Errorf("zero unit counts: %+v\nwant the default pool's %+v", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	dyns := []trace.Dyn{
		load(r(1), r(2), 0x10000),
		store(r(1), r(2), 0x10008),
		alu(r(3), r(1), r(1)),
	}
	s := runStream(t, dyns, ideal(t, 2), nil)
	if s.Loads != 1 || s.Stores != 1 {
		t.Errorf("loads/stores = %d/%d", s.Loads, s.Stores)
	}
	if s.Committed != 3 || s.Dispatched != 3 {
		t.Errorf("committed/dispatched = %d/%d", s.Committed, s.Dispatched)
	}
	if s.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestMissLatencyVisible(t *testing.T) {
	// A single cold load: AGU 1 + L2+mem (14) + fill. Total run should be
	// around 17-20 cycles, far more than a hit.
	dyns := []trace.Dyn{load(r(1), r(2), 0x70000)}
	s := runStream(t, dyns, ideal(t, 1), nil)
	if s.Cycles < 15 {
		t.Errorf("cold miss run took %d cycles, want >= 15", s.Cycles)
	}
}

func TestZeroLengthStream(t *testing.T) {
	s := runStream(t, nil, ideal(t, 1), nil)
	if s.Committed != 0 {
		t.Errorf("committed = %d", s.Committed)
	}
}

func TestLBICEndToEnd(t *testing.T) {
	// Same-line pairs in two banks: a 2x2 LBIC should clearly beat a 2-bank
	// cache on this stream.
	const n = 400
	mk := func() []trace.Dyn {
		var dyns []trace.Dyn
		for i := 0; i < n/4; i++ {
			base := 0x10000 + uint64(i%4)*128
			dyns = append(dyns,
				load(r(1+i%4), r(20), base),     // bank 0
				load(r(5+i%4), r(20), base+8),   // bank 0, same line
				load(r(9+i%4), r(20), base+32),  // bank 1
				load(r(13+i%4), r(20), base+40), // bank 1, same line
			)
		}
		return dyns
	}
	mkArb := func() ports.Arbiter {
		a, err := corelbic(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	bank, err := ports.NewBanked(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	sLBIC := runStream(t, mk(), mkArb(), nil)
	sBank := runStream(t, mk(), bank, nil)
	if float64(sBank.Cycles) < 1.5*float64(sLBIC.Cycles) {
		t.Errorf("LBIC %d cycles vs banked %d; combining should nearly double throughput",
			sLBIC.Cycles, sBank.Cycles)
	}
}
