package cpu

import (
	"testing"

	"lbic/internal/cache"
	"lbic/internal/metrics"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// ffArbs builds one arbiter of every organization fast-forward interacts
// with: always-quiescent designs and the store-queue designs whose quiescence
// is conditional.
func ffArbs(t *testing.T) map[string]func() ports.Arbiter {
	t.Helper()
	return map[string]func() ports.Arbiter{
		"ideal-2": func() ports.Arbiter { a, _ := ports.NewIdeal(2); return a },
		"bank-4":  func() ports.Arbiter { a, _ := ports.NewBankedSelector(4, 32, ports.BitSelect); return a },
		"banksq-4": func() ports.Arbiter {
			a, _ := ports.NewBankedSQ(4, 32, 0)
			return a
		},
		"lbic-4x2": func() ports.Arbiter {
			a, err := corelbic(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
}

// ffStream mixes dependent chains, store bursts, and far loads whose misses
// create the long idle stretches fast-forward exists for.
func ffStream(n int) []trace.Dyn {
	dyns := make([]trace.Dyn, 0, n)
	for i := 0; len(dyns) < n; i++ {
		switch i % 7 {
		case 0:
			dyns = append(dyns, load(r(1), r(1), uint64(i)*8192)) // serial miss chain
		case 1, 2:
			dyns = append(dyns, alu(r(1), r(1), r(2)))
		case 3:
			dyns = append(dyns, store(r(1), r(20), uint64(i%64)*8))
		default:
			dyns = append(dyns, alu(r(3), r(3), r(4)))
		}
	}
	return dyns[:n]
}

func newFFCore(t *testing.T, dyns []trace.Dyn, arb ports.Arbiter) *Core {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000
	c, err := New(trace.NewSliceStream(dyns), hier, arb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func histEqual(a, b *metrics.Histogram) bool {
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) || a.Count() != b.Count() || a.Sum() != b.Sum() {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// TestFastForwardExactness is the load-bearing property: a run with idle-cycle
// fast-forward (Run) must be bit-identical — statistics, stall stack, grant
// histogram, occupancy gauges, MSHR occupancy, hierarchy counters — to the
// same run stepped cycle by cycle.
func TestFastForwardExactness(t *testing.T) {
	dyns := ffStream(3000)
	anySkipped := false
	for name, mk := range ffArbs(t) {
		t.Run(name, func(t *testing.T) {
			fast := newFFCore(t, dyns, mk())
			fastStats, err := fast.Run()
			if err != nil {
				t.Fatal(err)
			}
			slow := newFFCore(t, dyns, mk())
			for !slow.Done() {
				if err := slow.Step(); err != nil {
					t.Fatal(err)
				}
			}
			slowStats := slow.Stats()

			if fastStats != slowStats {
				t.Errorf("stats diverge:\nfast: %+v\nslow: %+v", fastStats, slowStats)
			}
			if fast.hier.Stats() != slow.hier.Stats() {
				t.Errorf("hierarchy stats diverge:\nfast: %+v\nslow: %+v",
					fast.hier.Stats(), slow.hier.Stats())
			}
			if !histEqual(fast.GrantsPerCycle(), slow.GrantsPerCycle()) {
				t.Errorf("grant histograms diverge: fast count=%d sum=%d, slow count=%d sum=%d",
					fast.GrantsPerCycle().Count(), fast.GrantsPerCycle().Sum(),
					slow.GrantsPerCycle().Count(), slow.GrantsPerCycle().Sum())
			}
			if !histEqual(fast.hier.MSHROccupancy(), slow.hier.MSHROccupancy()) {
				t.Errorf("MSHR occupancy histograms diverge")
			}
			fg, sg := fast.OccupancyGauges(), slow.OccupancyGauges()
			for i := range fg {
				if fg[i].Samples() != sg[i].Samples() || fg[i].Max() != sg[i].Max() || fg[i].Mean() != sg[i].Mean() {
					t.Errorf("gauge %q diverges: fast (n=%d max=%d mean=%f) slow (n=%d max=%d mean=%f)",
						fg[i].Name, fg[i].Samples(), fg[i].Max(), fg[i].Mean(),
						sg[i].Samples(), sg[i].Max(), sg[i].Mean())
				}
			}
			if fast.FastForwarded() > 0 {
				anySkipped = true
			}
			if slow.FastForwarded() != 0 {
				t.Errorf("stepped run fast-forwarded %d cycles", slow.FastForwarded())
			}
		})
	}
	if !anySkipped {
		t.Error("no configuration fast-forwarded any cycles; the equivalence test is vacuous")
	}
}

// TestFastForwardStallStackSums: after a fast-forwarded run, the CPI stall
// stack must still account for every cycle exactly once — the bulk-skip
// accounting cannot drop or double-count a cycle.
func TestFastForwardStallStackSums(t *testing.T) {
	for name, mk := range ffArbs(t) {
		t.Run(name, func(t *testing.T) {
			c := newFFCore(t, ffStream(3000), mk())
			s, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, v := range s.StallCycles {
				sum += v
			}
			if sum != s.Cycles {
				t.Errorf("stall stack sums to %d, want Cycles = %d (fast-forwarded %d, stack %v)",
					sum, s.Cycles, c.FastForwarded(), s.StallCycles)
			}
		})
	}
}

// TestFastForwardWatchdogParity: a hang must produce the same watchdog error
// at the same cycle whether the idle span was fast-forwarded or stepped. No
// valid stream hangs the core, so the hang is synthetic: a phantom live store
// (white-box) keeps Done false with nothing scheduled, exactly the situation
// the watchdog guards against.
func TestFastForwardWatchdogParity(t *testing.T) {
	mk := func() *Core {
		c := newFFCore(t, nil, func() ports.Arbiter { a, _ := ports.NewIdeal(1); return a }())
		c.watchdog = 500
		c.storeLive = 1 // phantom: never retires, never requests a port
		return c
	}
	fast := mk()
	_, fastErr := fast.Run()
	if fast.FastForwarded() == 0 {
		t.Error("hang was not fast-forwarded; parity test is vacuous")
	}
	slow := mk()
	var slowErr error
	for slowErr == nil && !slow.Done() {
		slowErr = slow.Step()
	}
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected both runs to trip the watchdog; fast=%v slow=%v", fastErr, slowErr)
	}
	if fast.Now() != slow.Now() {
		t.Errorf("watchdog tripped at cycle %d fast-forwarded vs %d stepped", fast.Now(), slow.Now())
	}
	if fastErr.Error() != slowErr.Error() {
		t.Errorf("watchdog errors diverge:\nfast: %v\nslow: %v", fastErr, slowErr)
	}
	if fast.Stats() != slow.Stats() {
		t.Errorf("stats diverge:\nfast: %+v\nslow: %+v", fast.Stats(), slow.Stats())
	}
}

// TestFastForwardMaxCyclesParity: the cycle-budget error must also fire at
// the same cycle with identical statistics under fast-forward.
func TestFastForwardMaxCyclesParity(t *testing.T) {
	dyns := ffStream(3000)
	mk := func() *Core {
		hier, err := cache.NewHierarchy(cache.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		arb, err := ports.NewIdeal(1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxCycles = 200
		c, err := New(trace.NewSliceStream(dyns), hier, arb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fast := mk()
	_, fastErr := fast.Run()
	slow := mk()
	var slowErr error
	for slowErr == nil && !slow.Done() {
		slowErr = slow.Step()
	}
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected both runs to exceed MaxCycles; fast=%v slow=%v", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Errorf("MaxCycles errors diverge:\nfast: %v\nslow: %v", fastErr, slowErr)
	}
	if fast.Stats() != slow.Stats() {
		t.Errorf("stats diverge:\nfast: %+v\nslow: %+v", fast.Stats(), slow.Stats())
	}
}
