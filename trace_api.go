package lbic

import (
	"context"
	"fmt"
	"io"

	"lbic/internal/cpu"
)

// TraceOptions configures TraceSimulation's output window.
type TraceOptions struct {
	// SkipCycles fast-forwards past warm-up before printing. When it skips
	// the whole run, no per-cycle header or lines are printed — only the
	// final summary.
	SkipCycles uint64
	// MaxCycles bounds the number of printed lines (0 = all).
	MaxCycles uint64
	// Every prints one line per this many cycles (0 or 1 = every cycle).
	// Sampling aligns to absolute cycle numbers (cycle % Every == 0), not
	// to SkipCycles: skip=1003, every=10 first prints cycle 1010.
	Every uint64
}

// TraceSimulation runs prog like Simulate but writes a per-cycle pipeline
// occupancy timeline to w: commit and issue counts, window/LSQ/ready-queue
// occupancy, loads awaiting ports, the committed store buffer, port grants,
// and the state of the oldest instruction. Use it to see *why* a port
// organization stalls — e.g., a banked run shows the memory queue backing up
// while the same cycle window under an LBIC drains it. The returned Result
// is as complete as Simulate's, including Metrics and port statistics.
func TraceSimulation(prog *Program, cfg Config, w io.Writer, opt TraceOptions) (res Result, err error) {
	defer func() { recoverRunPanic(prog.Name, &err, recover()) }()

	src := ProgramSource(prog)
	o, err := src.origin()
	if err != nil {
		return Result{}, err
	}
	m, err := wire(context.Background(), src, o, cfg.MaxInsts, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	s := m.sims[0]
	st, err := cpu.TraceRun(s.core, w, cpu.TraceOptions{
		SkipCycles: opt.SkipCycles,
		MaxCycles:  opt.MaxCycles,
		Every:      opt.Every,
	})
	if err != nil {
		return Result{}, err
	}
	// End-of-run verification only applies when the trace ran to
	// completion; a MaxCycles cut legitimately leaves work in flight.
	if opt.MaxCycles == 0 {
		if err := m.finishVerify(s); err != nil {
			return Result{}, fmt.Errorf("lbic: tracing %q on %s: %w", prog.Name, cfg.Port.Name(), err)
		}
	}
	return m.result(prog.Name, cfg, s, st), nil
}
