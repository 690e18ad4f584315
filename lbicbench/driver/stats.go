package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loop is a closed-loop timer: it runs until the time budget is spent and
// at least minOps ops have completed, capped at three budgets so a slow
// host cannot push a run past its deadline.
type loop struct {
	start  time.Time
	budget time.Duration
	minOps int
}

func newLoop(budget time.Duration, minOps int) *loop {
	return &loop{start: time.Now(), budget: budget, minOps: minOps}
}

func (l *loop) more(ops int) bool {
	el := time.Since(l.start)
	if el >= 3*l.budget {
		return false
	}
	return el < l.budget || ops < l.minOps
}

// side is the ops one build completed: each op's latency in ms, and the
// wall clock spent on them.
type side struct {
	lat  []float64
	wall time.Duration
}

func (s *side) add(d time.Duration) {
	s.lat = append(s.lat, ms(d))
	s.wall += d
}

func (s side) rate() float64 { return float64(len(s.lat)) / s.wall.Seconds() }

// pace holds the frozen reference's figures for one workload on the host
// the benchmark was calibrated on. Each host-time metric is paced: the
// program's figure times the reference's figure here, over the reference's
// figure measured in the same run. The host's speed during the run cancels
// out, and a change to the program moves its figure and not the
// reference's.
type pace struct {
	setupS, p50MS, tailMS, opsPerS float64
}

// cycle runs one step of the reference between two steps of the program,
// so the reference samples the host phases the program runs in and the
// program gets two thirds of the run.
func cycle(prog, ref func() error) error {
	for _, step := range []func() error{prog, ref, prog} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// setupStat adds setup_s: the program's median set-up, paced against the
// reference's set-ups in the same run.
func setupStat(r *result, w *workload, prog, ref side) {
	p, q := median(prog.lat)/1000, median(ref.lat)/1000
	r.add("setup_s", p*w.pace.setupS/q, "s")
	r.note("set-up as measured: program %.4g s, reference %.4g s (medians of %d and %d)",
		p, q, len(prog.lat), len(ref.lat))
}

// opStats adds the latency and throughput metrics shared by every workload,
// each paced against the reference's ops in the same run.
func opStats(r *result, w *workload, prog, ref side) {
	p50, tail := median(prog.lat), percentile(prog.lat, w.tail)
	refP50, refTail := median(ref.lat), percentile(ref.lat, w.tail)
	r.add("op_ms_p50", p50*w.pace.p50MS/refP50, "ms")
	r.add("op_ms_tail", tail*w.pace.tailMS/refTail, "ms")
	r.add("ops_per_s", prog.rate()*w.pace.opsPerS/ref.rate(), "1/s")
	r.note("op_ms_tail is p%g over %d program ops", w.tail, len(prog.lat))
	r.note("as measured, program: p50 %.4g ms, p%g %.4g ms, %.4g ops/s over %.1f s",
		p50, w.tail, tail, prog.rate(), prog.wall.Seconds())
	r.note("as measured, reference: p50 %.4g ms, p%g %.4g ms, %.4g ops/s over %d ops in %.1f s",
		refP50, w.tail, refTail, ref.rate(), len(ref.lat), ref.wall.Seconds())
	r.note("one op simulates %.0f instructions: simulated Minst/s = ops_per_s x %g", w.simInsts, w.simInsts/1e6)
}
