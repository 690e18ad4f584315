package lbic_test

import (
	"context"
	"strings"
	"testing"

	"lbic"
)

// TestAnalyticPortBound validates every benchmark/port-count combination
// against the closed-form port bound: committed instructions per cycle can
// never exceed ports divided by the fraction of instructions that actually
// consumed a port (loads that forwarded in the LSQ do not). This ties the
// simulator to first principles — if arbitration ever over-granted, or
// accounting ever dropped a request, some cell would break the bound.
func TestAnalyticPortBound(t *testing.T) {
	for _, bench := range lbic.BenchmarkNames() {
		prog, err := lbic.BuildBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4} {
			cfg := lbic.DefaultConfig()
			cfg.Port = lbic.IdealPort(p)
			cfg.MaxInsts = 60_000
			res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Port-consuming references per instruction.
			portRefs := float64(res.CPU.PortGrants-res.CPU.PortBlocked) / float64(res.Insts)
			if portRefs == 0 {
				continue
			}
			bound := float64(p) / portRefs
			if res.IPC > bound*1.001 {
				t.Errorf("%s true-%d: IPC %.3f exceeds port bound %.3f (portRefs/inst %.3f)",
					bench, p, res.IPC, bound, portRefs)
			}
		}
	}
}

// TestAnalyticGrantConservation: every port grant is accounted for — it
// either became a hierarchy access (hit/miss/blocked), and the hierarchy's
// own accounting must balance.
func TestAnalyticGrantConservation(t *testing.T) {
	for _, bench := range []string{"compress", "li", "swim"} {
		for _, port := range []lbic.PortConfig{
			lbic.IdealPort(4), lbic.BankedPort(4), lbic.LBICPort(4, 2), lbic.ReplicatedPort(4),
		} {
			res := simulate(t, bench, port)
			m := res.Mem
			if m.Accesses != res.CPU.PortGrants {
				t.Errorf("%s %s: hierarchy accesses %d != port grants %d",
					bench, port.Name(), m.Accesses, res.CPU.PortGrants)
			}
			if m.Hits+m.MissesNew+m.MissesMerge+m.Blocked != m.Accesses {
				t.Errorf("%s %s: hierarchy accounting unbalanced: %+v", bench, port.Name(), m)
			}
			// Committed memory operations = grants that completed plus
			// forwarded loads (each non-blocked grant services one op).
			completed := res.CPU.PortGrants - res.CPU.PortBlocked + res.CPU.Forwards
			if completed != res.CPU.Loads+res.CPU.Stores {
				t.Errorf("%s %s: completed memory ops %d != loads+stores %d",
					bench, port.Name(), completed, res.CPU.Loads+res.CPU.Stores)
			}
		}
	}
}

// TestPortConfigErrors: every malformed port organization is rejected up
// front with an error naming the offending parameter, not a panic or a
// silently clamped run.
func TestPortConfigErrors(t *testing.T) {
	refs := []lbic.Ref{{Addr: 0}}
	cases := []struct {
		port lbic.PortConfig
		want string
	}{
		{lbic.IdealPort(0), "ideal port count 0 is not positive"},
		{lbic.ReplicatedPort(0), "replicated port count 0 is not positive"},
		{lbic.BankedPort(3), "bank count 3 is not a positive power of two"},
		{lbic.BankedPort(0), "bank count 0 is not a positive power of two"},
		{lbic.MultiPortedBanksPort(2, 0), "ports per bank 0 is not positive"},
		{lbic.LBICPort(4, 0), "LBIC line ports 0 is not positive"},
		// Default 32-byte lines hold 8 four-byte words; a 64-wide combining
		// bus cannot be built from them (§5.1's N ≤ L/4 constraint).
		{lbic.LBICPort(4, 64), "combining width 64 exceeds the 8 four-byte words of a 32-byte line"},
		{lbic.PortConfig{Kind: lbic.LBIC, Banks: 4, LinePorts: 2, StoreQueueDepth: -1},
			"LBIC store queue depth -1 is not positive"},
		{lbic.PortConfig{Kind: lbic.BankedStoreQueue, Banks: 4, StoreQueueDepth: -1},
			"store queue depth -1 is not positive"},
		// Every dimension and the peak width are capped, so a port name
		// cannot size allocations in proportion to its digits.
		{lbic.BankedPort(8388608), "bank count 8388608 exceeds the limit of 1024"},
		{lbic.IdealPort(10000000), "width 10000000 exceeds the limit of 1024"},
		{lbic.MultiPortedBanksPort(1024, 1024), "peak width 1048576 exceeds the limit of 1024"},
		{lbic.PortConfig{Kind: lbic.BankedStoreQueue, Banks: 4, StoreQueueDepth: 1 << 20},
			"store queue depth 1048576 exceeds the limit of 1024"},
		// A set field outside the kind's schema would be ignored by the
		// machine yet reach reports and cache keys.
		{lbic.PortConfig{Kind: lbic.BankedStoreQueue, Banks: 4, Selector: lbic.WordInterleave},
			"a banksq port takes no selector"},
		{lbic.PortConfig{Kind: lbic.Ideal, Width: 4, StoreQueueDepth: 8}, "a true port takes no store_queue_depth"},
		{lbic.PortConfig{Kind: lbic.Replicated, Width: 4, StoreQueueDepth: 2}, "a repl port takes no store_queue_depth"},
		{lbic.PortConfig{Kind: lbic.Banked, Banks: 4, StoreQueueDepth: 4}, "a bank port takes no store_queue_depth"},
		{lbic.PortConfig{Kind: lbic.MultiPortedBanks, Banks: 2, Width: 2, LinePorts: 2, Greedy: true},
			"a mpb port takes no line_ports"},
		{lbic.PortConfig{Kind: lbic.MultiPortedBanks, Banks: 2, Width: 2, StoreQueueDepth: 4},
			"a mpb port takes no store_queue_depth"},
		{lbic.PortConfig{Kind: lbic.LBIC, Banks: 4, LinePorts: 2, Selector: lbic.XorFold}, "a lbic port takes no selector"},
		{lbic.PortConfig{Kind: lbic.Coded, Banks: 4, ParityBanks: 1, Selector: lbic.XorFold}, "a coded port takes no selector"},
	}
	for _, c := range cases {
		if _, err := lbic.ScenarioCycles(c.port, refs); err == nil {
			t.Errorf("%+v: accepted, want error %q", c.port, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q, want it to contain %q", c.port, err, c.want)
		}
	}
}

// TestSimConfigErrors: malformed hierarchy and processor overrides are
// rejected by Simulate with distinct messages.
func TestSimConfigErrors(t *testing.T) {
	prog, err := lbic.BuildPattern("unit-stride")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mutate func(*lbic.Config)) error {
		cfg := lbic.DefaultConfig()
		cfg.MaxInsts = 100
		mutate(&cfg)
		_, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*lbic.Config)
		want   string
	}{
		{"non-power-of-two line size", func(cfg *lbic.Config) {
			mem := lbic.DefaultMemParams()
			mem.L1.LineSize = 24
			cfg.Mem = &mem
			cfg.Port = lbic.BankedPort(4) // bank selection needs the line bits
		}, "line size 24 is not a positive power of two"},
		{"zero fetch width", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.FetchWidth = 0
			cfg.CPU = &cpu
		}, "widths must be positive"},
		{"negative FU count", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.FUCount[0] = -1
			cfg.CPU = &cpu
		}, "negative unit count"},
		{"zero RUU", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.RUUSize = 0
			cfg.CPU = &cpu
		}, "RUU size 0 is not positive"},
		// Every size an override can set is capped: each reaches make.
		{"oversized RUU", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.RUUSize = 1 << 20
			cfg.CPU = &cpu
		}, "RUU size 1048576 exceeds the limit of 4096"},
		{"oversized scan depth", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.MemScanDepth = 1 << 20
			cfg.CPU = &cpu
		}, "memory scan depth 1048576 exceeds the limit of 4096"},
		{"oversized FU count", func(cfg *lbic.Config) {
			cpu := lbic.DefaultCPUConfig()
			cpu.FUCount[0] = 1 << 20
			cfg.CPU = &cpu
		}, "exceeds the limit of 4096"},
		{"oversized L2", func(cfg *lbic.Config) {
			mem := lbic.DefaultMemParams()
			mem.L2.Size = 1 << 30
			cfg.Mem = &mem
		}, "L2: cache: size 1073741824 holds 16777216 lines of 64 bytes, over the limit of 65536 lines"},
		{"overflowing L1 geometry", func(cfg *lbic.Config) {
			mem := lbic.DefaultMemParams()
			mem.L1 = lbic.Geometry{Size: 32 << 10, LineSize: 1 << 32, Assoc: 1 << 32}
			cfg.Mem = &mem
		}, "L1: cache: size 32768 is not a multiple of line size"},
		{"oversized memory latency", func(cfg *lbic.Config) {
			mem := lbic.DefaultMemParams()
			mem.MemLat = 1 << 62
			cfg.Mem = &mem
		}, "memory latency 4611686018427387904 exceeds the limit of 65536"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.mutate)
			if err == nil {
				t.Fatalf("accepted, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestAnalyticWidthBounds: IPC never exceeds any front-end width.
func TestAnalyticWidthBounds(t *testing.T) {
	for _, bench := range lbic.BenchmarkNames() {
		res := simulate(t, bench, lbic.IdealPort(16))
		if res.IPC > 64.001 {
			t.Errorf("%s: IPC %.2f exceeds machine width", bench, res.IPC)
		}
		if res.CPU.Committed != res.CPU.Dispatched {
			t.Errorf("%s: committed %d != dispatched %d", bench, res.CPU.Committed, res.CPU.Dispatched)
		}
	}
}
