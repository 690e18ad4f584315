package lbic

// This file is the simulator's one execution path. Simulate and
// SimulateBatch wire their machines here: one instruction stream
// per run and one machine per configuration, stepped by cpu.RunLanes. A run
// of one configuration reads the stream directly; K >= 2 lanes share it
// through a tracecache.SharedCursor, so each dynamic instruction is decoded
// (or emulated, or synthesized) once per batch instead of once per lane.
// That is the shape of every table in the paper: one reference stream asked
// the same question under K port organizations.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"lbic/internal/cache"
	"lbic/internal/cpu"
	"lbic/internal/emu"
	"lbic/internal/oracle"
	"lbic/internal/ports"
	"lbic/internal/trace"
	"lbic/internal/tracecache"
	"lbic/internal/tracing"
	"lbic/internal/vm"
)

// Source is the dynamic instruction stream a run consumes: a program,
// executed live or replayed from Config.Trace; a recorded trace; or a
// synthetic workload generator. Build one with ProgramSource, TraceSource or
// GeneratorSource.
type Source struct {
	prog  *Program
	trace *RecordedTrace
	gen   *GenParams
}

// ProgramSource runs prog on the emulator. When every configuration of the
// run shares one Config.Trace, sets a positive MaxInsts and does not Verify,
// the stream is replayed from that cache instead (recorded on first use);
// results are bit-identical either way.
func ProgramSource(prog *Program) Source { return Source{prog: prog} }

// TraceSource replays a recorded trace, with Result.Benchmark set to the
// trace's name. A MaxInsts of 0, or one beyond the trace, runs to the end of
// the trace; a smaller budget truncates it. Config.Trace is ignored (the
// stream is already a recording) and Config.Verify is rejected: the
// invariant oracle needs the live machine's memory image, which a bare
// address trace does not carry.
func TraceSource(t *RecordedTrace) Source { return Source{trace: t} }

// GeneratorSource synthesizes the stream from a workload generator, with
// Result.Benchmark set to the resolved parameter key (GenParams.Key).
// Generator streams never end, so MaxInsts must be positive; Config.Verify
// is rejected as for TraceSource. A generator run is byte-identical, as a
// serialized run report, to recording the generator at the same budget and
// replaying the recording.
func GeneratorSource(p GenParams) Source { return Source{gen: &p} }

// origin is a resolved Source: the name its results carry, and the words its
// spans and errors use.
type origin struct {
	name string
	verb string // "simulating", "replaying" or "generating"
	desc string // what the source is, for the Verify rejection
	gen  GenParams
}

func (src Source) origin() (origin, error) {
	switch {
	case src.prog != nil:
		return origin{name: src.prog.Name, verb: "simulating"}, nil
	case src.trace != nil:
		return origin{name: src.trace.name, verb: "replaying", desc: "a recorded trace"}, nil
	case src.gen != nil:
		rp, err := src.gen.Resolve()
		if err != nil {
			return origin{}, err
		}
		return origin{name: rp.Key(), verb: "generating", desc: "a synthetic stream", gen: rp}, nil
	}
	return origin{}, errors.New("lbic: empty Source")
}

// budget validates cfgs against the source and returns the run's
// instruction budget. A trace's budgets are first clamped to its length, so
// the core stops at an explicit instruction count instead of discovering
// stream end one fetch late; that keeps stall accounting, and so the
// serialized run report, byte-identical to a direct run at the same budget.
// Lanes of a batch share one positive budget: that is what lets a live
// source (emulator or generator) stop at exactly the right instruction for
// every lane, including a Verify lane's final-memory check.
func (src Source) budget(o origin, cfgs []Config) (uint64, error) {
	if len(cfgs) == 0 {
		return 0, fmt.Errorf("lbic: batch of %q has no lanes", o.name)
	}
	for i := range cfgs {
		if src.trace != nil && (cfgs[i].MaxInsts == 0 || cfgs[i].MaxInsts > src.trace.Len()) {
			cfgs[i].MaxInsts = src.trace.Len()
		}
		if cfgs[i].Verify && src.prog == nil {
			return 0, fmt.Errorf("lbic: %s %q: Verify needs a live program, not %s", o.verb, o.name, o.desc)
		}
	}
	insts := cfgs[0].MaxInsts
	if len(cfgs) > 1 {
		if insts == 0 {
			return 0, fmt.Errorf("lbic: batch of %q needs a positive shared MaxInsts", o.name)
		}
		for i, cfg := range cfgs {
			if cfg.MaxInsts != insts {
				return 0, fmt.Errorf("lbic: batch of %q mixes instruction budgets (lane 0 %d, lane %d %d)",
					o.name, insts, i, cfg.MaxInsts)
			}
		}
	}
	if src.gen != nil && insts == 0 {
		return 0, fmt.Errorf("lbic: generating %q: generator streams never end; set Config.MaxInsts", o.name)
	}
	return insts, nil
}

// replayCache returns the trace cache a program run replays from: the one
// every configuration shares, when the budget is finite and no lane needs
// the live machine's memory for Verify. It returns nil for a live run.
func replayCache(cfgs []Config, insts uint64) *TraceCache {
	tc := cfgs[0].Trace
	if tc == nil || insts == 0 {
		return nil
	}
	for _, cfg := range cfgs {
		if cfg.Trace != tc || cfg.Verify {
			return nil
		}
	}
	return tc
}

// batchWindow is the shared cursor's decode window: two scheduler chunks, so
// the lane at the frontier never laps the lane that has not run this round.
const batchWindow = 2 * cpu.LaneChunk

// sim is one lane's machine: the arbiter, hierarchy and core built for one
// configuration, and its invariant checker when the configuration Verifies.
type sim struct {
	arb   ports.Arbiter
	hier  *cache.Hierarchy
	core  *cpu.Core
	check *oracle.Checker
}

// machines is one run's wiring: a sim per configuration, all reading one
// stream.
type machines struct {
	sims []*sim
	// live is the emulator behind the stream; nil unless the run executes a
	// program live.
	live *emu.Machine
	// tcache is the trace cache the stream replays from, nil otherwise.
	tcache *TraceCache
	// cur shares the stream among the lanes of a batch; nil for K=1.
	cur *tracecache.SharedCursor
}

// wire builds one sim per configuration, picks src's stream, and attaches
// every core to it: the stream itself for a single configuration, a lane
// reader of a shared cursor over it for K >= 2. Recording a program's trace
// on a cache miss may block on ctx.
func wire(ctx context.Context, src Source, o origin, insts uint64, cfgs []Config) (*machines, error) {
	m := &machines{sims: make([]*sim, len(cfgs))}
	for i, cfg := range cfgs {
		s, err := newSim(cfg)
		if err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("lbic: batch lane %d (%s): %w", i, cfg.Port.Name(), err)
			}
			return nil, err
		}
		m.sims[i] = s
	}

	var stream trace.Stream
	var err error
	switch {
	case src.prog != nil:
		if tc := replayCache(cfgs, insts); tc != nil {
			stream, err = tc.Stream(ctx, src.prog, insts)
			m.tcache = tc
		} else {
			m.live, err = emu.New(src.prog)
			stream = m.live
		}
	case src.trace != nil:
		stream = src.trace.tr.NewReader()
	default:
		stream, err = o.gen.Stream()
	}
	if err != nil {
		return nil, err
	}

	if len(cfgs) > 1 {
		m.cur = tracecache.NewSharedCursor(stream, batchWindow)
		if m.live == nil {
			// Replayed and synthetic sources may be read ahead freely; only
			// a live emulator must be drawn exactly as far as the lanes
			// consume.
			m.cur.SetBatchFill(cpu.LaneChunk)
		}
	}
	for i, s := range m.sims {
		lane := stream
		if m.cur != nil {
			lane = m.cur.NewLaneReader()
		}
		if err := s.wireCore(lane, cfgs[i]); err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("lbic: batch lane %d (%s): %w", i, cfgs[i].Port.Name(), err)
			}
			return nil, err
		}
		if cfgs[i].Verify {
			s.check = oracle.NewChecker(src.prog, s.arb)
			s.core.SetVerifier(s.check)
		}
	}
	return m, nil
}

// newSim constructs the arbiter and hierarchy for a configuration — the
// components every run needs regardless of where its instruction stream
// comes from.
func newSim(cfg Config) (*sim, error) {
	memParams := cache.DefaultParams()
	if cfg.Mem != nil {
		memParams = *cfg.Mem
	}
	arb, err := buildArbiter(cfg.Port, memParams.L1.LineSize)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(memParams)
	if err != nil {
		return nil, err
	}
	return &sim{arb: arb, hier: hier}, nil
}

// wireCore attaches the timing core to a stream and hooks up cfg.Events and
// cfg.Pipeline.
func (s *sim) wireCore(stream trace.Stream, cfg Config) error {
	cpuCfg := cpu.DefaultConfig()
	if cfg.CPU != nil {
		cpuCfg = *cfg.CPU
	}
	cpuCfg.MaxInsts = cfg.MaxInsts
	c, err := cpu.New(stream, s.hier, s.arb, cpuCfg)
	if err != nil {
		return err
	}
	s.core = c
	if cfg.Events != nil {
		c.SetEventSink(cfg.Events)
		s.hier.SetEventSink(cfg.Events)
		if a, ok := s.arb.(*ports.Banks); ok {
			a.SetEventSink(cfg.Events)
		}
	}
	if cfg.Pipeline != nil {
		c.SetPipelineView(*cfg.Pipeline)
	}
	return nil
}

// finishVerify closes a lane's checker, if any, against the emulator's final
// memory.
func (m *machines) finishVerify(s *sim) error {
	if s.check == nil {
		return nil
	}
	return s.check.Finish(m.live.Mem())
}

// result assembles the Result of a finished lane, including the metrics
// registry.
func (m *machines) result(name string, cfg Config, s *sim, st cpu.Stats) Result {
	res := Result{
		Benchmark: name,
		Port:      cfg.Port,
		Cycles:    st.Cycles,
		Insts:     st.Committed,
		IPC:       st.IPC(),
		CPU:       st,
		Mem:       s.hier.Stats(),
		Metrics:   buildMetricsRegistry(s.core, s.hier, s.arb, st),
	}
	if o, _ := portOrgFor(cfg.Port.Kind); o.collect != nil {
		o.collect(s.arb.(*ports.Banks), &res)
	}
	if s.check != nil {
		sum := s.check.Summary()
		res.Verify = &sum
	}
	if m.tcache != nil {
		ts := m.tcache.Stats()
		res.TraceCache = &ts
	}
	return res
}

// release hands every lane's machine storage back to its pools once the
// results are assembled. Nothing a Result reaches lives there: its counters
// are copies and its metric objects are allocated per run.
func (m *machines) release() {
	for _, s := range m.sims {
		s.core.Release()
		s.hier.Release()
	}
	if m.cur != nil {
		m.cur.Release()
	}
}

// recoverRunPanic converts a panic escaping a run into an error: guest
// faults (*vm.Fault — bad addresses, unimplemented opcodes) become a
// "program faulted" error, and any other panic — a bug in a user-supplied
// arbiter, or in the simulator itself — becomes an error carrying the panic
// value and stack instead of tearing down the process. This is what lets the
// sweep runner isolate one broken cell from the rest of a table. Pass it the
// recover() value from the deferring function's own frame.
func recoverRunPanic(name string, errp *error, r any) {
	if r == nil {
		return
	}
	if f, ok := r.(*vm.Fault); ok {
		*errp = fmt.Errorf("lbic: program %q faulted: %w", name, f)
		return
	}
	*errp = fmt.Errorf("lbic: simulating %q panicked: %v\n%s", name, r, debug.Stack())
}

// run is the one execution path behind Simulate and SimulateBatch. It opens
// the spans, recovers panics, picks the stream, wires one machine per
// configuration onto it, steps them all with cpu.RunLanes, checks Verify
// lanes, assembles the results and releases the machines' storage for the
// next run. errs[i] is nil exactly when results[i]
// is valid; err reports a failure of the whole run.
//
// Every lane contributes one "simulate <name>" span carrying its coordinates
// and outcome; a batch of K >= 2 parents them under one "simulate batch
// <name> xK" span. Without a trace on ctx the spans cost nothing.
func run(ctx context.Context, src Source, cfgs []Config) (results []Result, errs []error, err error) {
	o, err := src.origin()
	if err != nil {
		return nil, nil, err
	}
	cfgs = append([]Config(nil), cfgs...)
	var batch *tracing.Span
	if len(cfgs) > 1 {
		ctx, batch = tracing.Start(ctx, fmt.Sprintf("simulate batch %s x%d", o.name, len(cfgs)))
		batch.SetAttr("benchmark", o.name)
		batch.SetAttr("lanes", len(cfgs))
	}
	spans := make([]*tracing.Span, len(cfgs))
	for i, cfg := range cfgs {
		_, spans[i] = tracing.Start(ctx, "simulate "+o.name)
		spans[i].SetAttr("benchmark", o.name)
		spans[i].SetAttr("port", cfg.Port.Key())
		if batch != nil {
			spans[i].SetAttr("lane", i)
		}
	}
	defer func() {
		for i, sp := range spans {
			switch {
			case err != nil:
				sp.SetAttr("error", err.Error())
			case errs[i] != nil:
				sp.SetAttr("error", errs[i].Error())
			default:
				spanResult(sp, &results[i])
			}
			sp.End()
		}
		if err != nil {
			batch.SetAttr("error", err.Error())
		}
		batch.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			results, errs = nil, nil
			recoverRunPanic(o.name, &err, r)
		}
	}()

	insts, err := src.budget(o, cfgs)
	if err != nil {
		return nil, nil, err
	}
	batch.SetAttr("insts", insts)
	if src.trace != nil {
		for _, sp := range spans {
			sp.SetAttr("trace_len", src.trace.Len())
		}
	}
	if src.prog != nil {
		tcAttr := "off"
		if tc := replayCache(cfgs, insts); tc != nil {
			tcAttr = "miss"
			if tc.Contains(src.prog, insts) {
				tcAttr = "hit"
			}
		}
		batch.SetAttr("trace_cache", tcAttr)
		for _, sp := range spans {
			sp.SetAttr("trace_cache", tcAttr)
		}
	}

	m, err := wire(ctx, src, o, insts, cfgs)
	if err != nil {
		return nil, nil, err
	}
	cores := make([]*cpu.Core, len(m.sims))
	for i, s := range m.sims {
		cores[i] = s.core
		if src.prog != nil {
			spans[i].SetAttr("replayed", m.tcache != nil)
		}
		spans[i].Event("core start")
	}
	errs = cpu.RunLanes(ctx, cores)
	results = make([]Result, len(cfgs))
	for i, s := range m.sims {
		if errs[i] == nil {
			errs[i] = m.finishVerify(s)
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("lbic: %s %q on %s: %w", o.verb, o.name, cfgs[i].Port.Name(), errs[i])
			continue
		}
		results[i] = m.result(o.name, cfgs[i], s, s.core.Stats())
	}
	m.release()
	return results, errs, nil
}

// spanResult stamps a finished lane's outcome on its span.
func spanResult(sp *tracing.Span, res *Result) {
	sp.SetAttr("cycles", res.Cycles)
	sp.SetAttr("insts", res.Insts)
	sp.SetAttr("ipc", res.IPC)
	if res.BankConflicts > 0 {
		sp.SetAttr("bank_conflicts", res.BankConflicts)
	}
	if res.LBIC != nil {
		sp.SetAttr("lbic_line_conflicts", res.LBIC.LineConflicts)
		sp.SetAttr("lbic_combined", res.LBIC.Combined)
	}
}

// Simulate runs one configuration over src on the paper's processor model
// and returns the measured statistics. Canceling ctx (or its deadline
// expiring) stops the run at the next cycle-poll boundary with the context's
// error. Guest faults and internal panics surface as errors, never panics.
//
// When ctx carries a trace (see WithTrace) the run contributes one terminal
// span named "simulate <name>" — the program's, the trace's, or the
// generator's key — with the run's coordinates and outcome: port, cycles,
// IPC, and for programs whether the stream replayed from the trace cache. A
// traced sweep thereby accounts simulation time down to individual runs.
func Simulate(ctx context.Context, src Source, cfg Config) (Result, error) {
	results, errs, err := run(ctx, src, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return results[0], errs[0]
}

// SimulateBatch runs every configuration in cfgs over src — typically the
// port axis of one sweep row — stepping all lanes off one shared stream
// cursor: one decode (or one live emulation, or one synthesis) per dynamic
// instruction instead of one per lane. All lanes must share one positive
// MaxInsts (after a trace source's clamp to its length). Lanes of a program
// may set Verify: each verified lane gets its own invariant checker and the
// shared live emulator provides the final memory image, so a batch with any
// Verify lane runs the emulator rather than replaying the trace cache.
//
// Each lane's Result, and its serialized run report, is byte-identical to
// Simulate of the same configuration; a batch of one is exactly Simulate.
// The returned slices are parallel to cfgs: errs[i] is nil exactly when
// results[i] is valid. The batch-level error reports setup failures (or a
// panic escaping any lane), in which case no lane completed.
func SimulateBatch(ctx context.Context, src Source, cfgs []Config) ([]Result, []error, error) {
	return run(ctx, src, cfgs)
}
