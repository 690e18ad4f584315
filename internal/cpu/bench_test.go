package cpu

import (
	"testing"

	"lbic/internal/cache"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// loopStream replays a fixed instruction pattern forever with consecutive
// sequence numbers and allocates nothing per Next, so a benchmark can hold
// the core at steady state for arbitrarily many cycles.
type loopStream struct {
	pat []trace.Dyn
	i   int
	seq uint64
}

func (s *loopStream) Next(d *trace.Dyn) bool {
	*d = s.pat[s.i]
	d.Seq = s.seq
	s.seq++
	if s.i++; s.i == len(s.pat) {
		s.i = 0
	}
	return true
}

// benchPattern keeps a bounded working set (hits, periodic misses, forwarding
// pairs, store bursts) so steady state exercises every core path without
// growing any cache-side structure.
func benchPattern() []trace.Dyn {
	pat := make([]trace.Dyn, 0, 1024)
	for i := 0; len(pat) < 1024; i++ {
		addr := uint64(i%512) * 8
		switch i % 6 {
		case 0:
			pat = append(pat, load(r(1+i%8), r(20), addr))
		case 1:
			pat = append(pat, alu(r(9), r(1+i%8), r(10)))
		case 2:
			pat = append(pat, store(r(9), r(20), addr))
		case 3:
			pat = append(pat, load(r(11), r(20), addr)) // forwarded from case 2
		case 4:
			pat = append(pat, load(r(12), r(21), uint64(i%64)*4096)) // miss traffic
		default:
			pat = append(pat, alu(r(13), r(12), r(9)))
		}
	}
	return pat
}

func newBenchCore(tb testing.TB) *Core {
	tb.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	arb, err := ports.NewBankedSelector(4, 32, ports.BitSelect)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 0 // the stream never ends; the benchmark bounds the run
	c, err := New(&loopStream{pat: benchPattern()}, hier, arb, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// warmSteps drives the core past the transient in which pools, free lists,
// and slice capacities grow to their steady-state size.
const warmSteps = 20_000

// BenchmarkCoreStep measures the steady-state cost of one pipeline cycle.
// The timing core is allocation-free at steady state (0 allocs/op, asserted
// by TestCoreStepZeroAlloc), so full-scale sweeps spend no time in the
// garbage collector.
func BenchmarkCoreStep(b *testing.B) {
	c := newBenchCore(b)
	for i := 0; i < warmSteps; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoreStepZeroAlloc pins the tentpole property down as a regression test:
// once warm, Step must not allocate. Skipped under the race detector, whose
// instrumentation allocates.
func TestCoreStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	c := newBenchCore(t)
	for i := 0; i < warmSteps; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var stepErr error
	avg := testing.AllocsPerRun(5000, func() {
		if err := c.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Errorf("Step allocates %.4f objects/op at steady state, want 0", avg)
	}
}
