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
