package cpu

import (
	"strings"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// mixedStream builds a stream exercising every stall source: dependent ALU
// chains, load bursts to conflicting addresses, and store bursts.
func mixedStream(n int) []trace.Dyn {
	dyns := make([]trace.Dyn, 0, n)
	for i := 0; len(dyns) < n; i++ {
		addr := uint64(i%512) * 8
		switch i % 5 {
		case 0:
			dyns = append(dyns, load(r(1+i%8), r(20), addr))
		case 1:
			dyns = append(dyns, alu(r(9), r(1+i%8), r(10)))
		case 2:
			dyns = append(dyns, store(r(9), r(20), addr+64))
		case 3:
			// Far address: periodic misses keep the MSHRs busy.
			dyns = append(dyns, load(r(11), r(21), uint64(i)*4096))
		default:
			dyns = append(dyns, alu(r(12), r(11), r(9)))
		}
	}
	return dyns[:n]
}

func sumStalls(s Stats) uint64 {
	var total uint64
	for _, v := range s.StallCycles {
		total += v
	}
	return total
}

func TestCPIStackSumsToCycles(t *testing.T) {
	dyns := mixedStream(4000)
	arbs := map[string]func() (ports.Arbiter, error){
		"ideal-1": func() (ports.Arbiter, error) { return ports.NewIdeal(1) },
		"bank-2":  func() (ports.Arbiter, error) { return ports.NewBankedSelector(2, 32, ports.BitSelect) },
		"lbic-2x2": func() (ports.Arbiter, error) {
			return corelbic(2, 2)
		},
	}
	for name, mk := range arbs {
		t.Run(name, func(t *testing.T) {
			arb, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			s := runStream(t, dyns, arb, func(c *Config) {
				// A small window and store buffer provoke the structural
				// stall buckets too.
				c.RUUSize = 16
				c.LSQSize = 8
				c.StoreBufferSize = 2
			})
			if s.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
			if got := sumStalls(s); got != s.Cycles {
				t.Errorf("stall stack sums to %d, want Cycles = %d (stack %v)",
					got, s.Cycles, s.StallCycles)
			}
			if s.StallCycles[StallCommitting] == 0 {
				t.Error("no cycles attributed to committing")
			}
		})
	}
}

func TestCPIStackStallBuckets(t *testing.T) {
	// Serial dependent loads through one port: the head must spend cycles
	// waiting on misses, and those cycles must land in the mem buckets.
	dyns := make([]trace.Dyn, 400)
	for i := range dyns {
		dyns[i] = load(r(1), r(1), uint64(i)*4096)
	}
	s := runStream(t, dyns, ideal(t, 1), nil)
	if got := sumStalls(s); got != s.Cycles {
		t.Fatalf("stall stack sums to %d, want %d", got, s.Cycles)
	}
	if s.StallCycles[StallMemWait] == 0 {
		t.Errorf("pointer-chase of misses attributed no cycles to %s (stack %v)",
			StallMemWait, s.StallCycles)
	}
}

func TestGrantsHistogramCountsEveryCycle(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	c, err := New(trace.NewSliceStream(mixedStream(2000)), hier, ideal(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := c.GrantsPerCycle()
	if h.Count() != s.Cycles {
		t.Errorf("grants histogram has %d samples, want one per cycle = %d",
			h.Count(), s.Cycles)
	}
	if h.Sum() != s.PortGrants {
		t.Errorf("grants histogram sums to %d, want PortGrants = %d", h.Sum(), s.PortGrants)
	}
	// Occupancy samples at commit boundaries (which keeps the gauges exact
	// under idle-cycle fast-forward), so one sample per committing cycle.
	for _, g := range c.OccupancyGauges() {
		if g.Samples() != s.StallCycles[StallCommitting] {
			t.Errorf("gauge %q has %d samples, want one per commit cycle = %d",
				g.Name, g.Samples(), s.StallCycles[StallCommitting])
		}
	}
}

func TestPipelineViewSkippedHeaderSuppressed(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	c, err := New(trace.NewSliceStream(mixedStream(200)), hier, ideal(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	c.SetPipelineView(PipelineView{W: &buf, Skip: 1 << 40})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("view printed although every cycle was skipped:\n%s", buf.String())
	}
	if st.Committed != 200 {
		t.Errorf("committed = %d, want 200", st.Committed)
	}
}

func TestStallCauseNames(t *testing.T) {
	names := StallCauseNames()
	if len(names) != NumStallCauses {
		t.Fatalf("got %d names, want %d", len(names), NumStallCauses)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" || strings.Contains(n, "stall(") {
			t.Errorf("cause %d has bad name %q", i, n)
		}
		if seen[n] {
			t.Errorf("duplicate cause name %q", n)
		}
		seen[n] = true
	}
	if StallCause(NumStallCauses).String() == names[0] {
		t.Error("out-of-range cause collides with a real name")
	}
}

var _ = isa.ClassLoad // keep the import when helpers change
