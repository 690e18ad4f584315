package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbic/internal/cache"
	"lbic/internal/core"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// genStream builds a pseudo-random but well-formed instruction stream from a
// seed: a mix of ALU ops, mul/div, FP, loads and stores with varying address
// patterns and register dependencies.
func genStream(seed int64, n int) []trace.Dyn {
	rng := rand.New(rand.NewSource(seed))
	dyns := make([]trace.Dyn, 0, n)
	reg := func() isa.Reg { return isa.R(1 + rng.Intn(28)) }
	freg := func() isa.Reg { return isa.F(rng.Intn(28)) }
	addr := func() uint64 {
		switch rng.Intn(3) {
		case 0: // hot line cluster
			return 0x10000 + uint64(rng.Intn(8))*8
		case 1: // strided
			return 0x20000 + uint64(rng.Intn(64))*128
		default: // scattered (misses)
			return 0x40000 + uint64(rng.Intn(1<<14))*32
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			dyns = append(dyns, trace.Dyn{Op: isa.Add, Class: isa.ClassIntALU,
				Dst: reg(), Src1: reg(), Src2: reg()})
		case 4:
			dyns = append(dyns, trace.Dyn{Op: isa.Mul, Class: isa.ClassIntMul,
				Dst: reg(), Src1: reg(), Src2: reg()})
		case 5:
			dyns = append(dyns, trace.Dyn{Op: isa.Div, Class: isa.ClassIntDiv,
				Dst: reg(), Src1: reg(), Src2: reg()})
		case 6:
			dyns = append(dyns, trace.Dyn{Op: isa.FAdd, Class: isa.ClassFPAdd,
				Dst: freg(), Src1: freg(), Src2: freg()})
		case 7, 8:
			size := []uint8{1, 4, 8}[rng.Intn(3)]
			a := addr() &^ uint64(size-1)
			dyns = append(dyns, trace.Dyn{Op: isa.Ld, Class: isa.ClassLoad,
				Dst: reg(), Src1: reg(), Addr: a, Size: size})
		default:
			size := []uint8{1, 4, 8}[rng.Intn(3)]
			a := addr() &^ uint64(size-1)
			dyns = append(dyns, trace.Dyn{Op: isa.Sd, Class: isa.ClassStore,
				Src1: reg(), Src2: reg(), Addr: a, Size: size})
		}
	}
	return dyns
}

func arbiters(t testing.TB) []ports.Arbiter {
	t.Helper()
	mk := func(a ports.Arbiter, err error) ports.Arbiter {
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	lb, err := core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: 32, Policy: core.PolicyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	return []ports.Arbiter{
		mk(ports.NewIdeal(1)),
		mk(ports.NewIdeal(4)),
		mk(ports.NewReplicated(2)),
		mk(ports.NewBankedSelector(4, 32, ports.BitSelect)),
		mk(ports.NewBankedSelector(4, 32, ports.XorFold)),
		mk(ports.NewBankedSelector(4, 32, ports.WordInterleave)),
		lb,
		greedy,
	}
}

// Every random stream drains completely on every arbiter, with coherent
// final statistics: no deadlock, no lost or duplicated instructions.
func TestStressAllArbitersDrain(t *testing.T) {
	const n = 3000
	for seed := int64(1); seed <= 6; seed++ {
		for _, arb := range arbiters(t) {
			dyns := genStream(seed, n)
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
			st, err := c.Run()
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, arb.Name(), err)
			}
			if st.Committed != n || st.Dispatched != n {
				t.Fatalf("seed %d on %s: committed/dispatched %d/%d, want %d",
					seed, arb.Name(), st.Committed, st.Dispatched, n)
			}
			if st.Cycles == 0 || st.Cycles > cfg.MaxCycles {
				t.Fatalf("seed %d on %s: cycles %d", seed, arb.Name(), st.Cycles)
			}
			mem := hier.Stats()
			if mem.Hits+mem.MissesNew+mem.MissesMerge+mem.Blocked != mem.Accesses {
				t.Fatalf("seed %d on %s: hierarchy accounting broken: %+v", seed, arb.Name(), mem)
			}
		}
	}
}

// Property: adding ideal ports never makes a stream meaningfully slower.
// (Exact monotonicity does not hold in a pipelined model: faster early loads
// shift miss timing and MSHR/L2 queue occupancy, producing classic
// scheduling anomalies of a few cycles — so a small slack is allowed.)
func TestStressIdealPortMonotonicity(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		prev := uint64(1 << 62)
		for _, p := range []int{1, 2, 4, 8} {
			dyns := genStream(seed, 1500)
			hier, err := cache.NewHierarchy(cache.DefaultParams())
			if err != nil {
				return false
			}
			arb, err := ports.NewIdeal(p)
			if err != nil {
				return false
			}
			cfg := DefaultConfig()
			cfg.MaxCycles = 2_000_000
			c, err := New(trace.NewSliceStream(dyns), hier, arb, cfg)
			if err != nil {
				return false
			}
			st, err := c.Run()
			if err != nil || st.Committed != 1500 {
				return false
			}
			if st.Cycles > prev+prev/20+8 {
				return false
			}
			if st.Cycles < prev {
				prev = st.Cycles
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: constrained windows still drain and respect the commit bound
// (IPC can never exceed the RUU size or the commit width).
func TestStressTinyWindows(t *testing.T) {
	f := func(seedRaw uint16, ruuRaw, lsqRaw uint8) bool {
		ruu := 2 + int(ruuRaw%62)
		lsq := 1 + int(lsqRaw)%ruu
		dyns := genStream(int64(seedRaw), 800)
		hier, err := cache.NewHierarchy(cache.DefaultParams())
		if err != nil {
			return false
		}
		arb, err := ports.NewIdeal(2)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.RUUSize = ruu
		cfg.LSQSize = lsq
		cfg.StoreBufferSize = 2
		cfg.MaxCycles = 4_000_000
		c, err := New(trace.NewSliceStream(dyns), hier, arb, cfg)
		if err != nil {
			return false
		}
		st, err := c.Run()
		if err != nil || st.Committed != 800 {
			return false
		}
		return st.IPC() <= float64(ruu)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The same stream on the same configuration always costs the same cycles.
func TestStressDeterminism(t *testing.T) {
	run := func() uint64 {
		dyns := genStream(42, 2000)
		hier, _ := cache.NewHierarchy(cache.DefaultParams())
		arb, _ := core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: 32})
		cfg := DefaultConfig()
		cfg.MaxCycles = 1_000_000
		c, _ := New(trace.NewSliceStream(dyns), hier, arb, cfg)
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %d vs %d cycles", a, b)
	}
}
