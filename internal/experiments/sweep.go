package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"lbic"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// Sweep carries the execution policy for a set of experiment runs: the
// instruction budget, parallelism, per-cell timeout, the trace cache, and
// graceful-shutdown plumbing. Every table and figure generator takes one, so
// a single panicking port design, hung pipeline, or ^C costs individual
// cells (rendered as ERR) rather than the whole evaluation. The zero value
// of every policy field is the conservative default: serial, no timeout,
// fail-fast. Each cell runs once: cells are deterministic, so a failed cell
// would fail the same way again.
type Sweep struct {
	// Insts is the per-run instruction budget.
	Insts uint64
	// Ctx cancels the whole sweep (nil = background).
	Ctx context.Context
	// Jobs bounds concurrently running cells (0 or 1 = serial).
	Jobs int
	// Timeout bounds each cell (0 = none).
	Timeout time.Duration
	// KeepGoing renders tables with ERR cells instead of stopping at the
	// first failure.
	KeepGoing bool
	// Trace is the sweep's one trace cache. It records each program's
	// dynamic trace once and replays it for every cell at the same
	// instruction budget — simulation cells, Table 2 characterization, and
	// Figure 3 reference-stream analysis all share one recording. NewSweep
	// sets it to a 256 MiB cache; replace it before the sweep runs to
	// change the budget. Results are bit-identical to live emulation.
	Trace *lbic.TraceCache
	// Spans, when non-nil, records every cell of this sweep as spans on the
	// trace (cell errors, abandonment and deadline slack from the runner;
	// cycles and trace-cache attribution from the simulator). Export the
	// tree with lbic.WriteChromeTrace or lbic.WriteTraceJSONL.
	Spans *lbic.RequestTrace
	// Stop requests graceful shutdown: in-flight cells finish, the rest are
	// skipped.
	Stop <-chan struct{}
	// OnCell observes every settled cell (progress reporting).
	OnCell func(key string, err error)

	log   *failureLog
	progs *progCache
	memo  *resultMemo
}

// traceBudget bounds the trace cache NewSweep creates. Matches lbictables'
// default -trace-cache-mb; eviction only costs a re-recording.
const traceBudget = 256 << 20

// NewSweep returns a sweep with the given budget and default policy.
func NewSweep(insts uint64) *Sweep {
	return &Sweep{
		Insts: insts,
		Trace: lbic.NewTraceCache(traceBudget),
		log:   &failureLog{},
		progs: &progCache{m: map[string]*lbic.Program{}},
		memo:  &resultMemo{m: map[string]*lbic.Result{}},
	}
}

// progCache builds each program once per sweep. Programs are immutable once
// built, so cells share instances — which both skips redundant synthesis and
// lets the trace cache memoize program fingerprints by identity.
type progCache struct {
	mu sync.Mutex
	m  map[string]*lbic.Program
}

func (pc *progCache) get(key string, build func() (*lbic.Program, error)) (*lbic.Program, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.m[key]; ok {
		return p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	pc.m[key] = p
	return p, nil
}

// benchProg returns the sweep's shared instance of a benchmark kernel.
func (sw *Sweep) benchProg(name string) (*lbic.Program, error) {
	return sw.progs.get("bench/"+name, func() (*lbic.Program, error) { return lbic.BuildBenchmark(name) })
}

// patternProg returns the sweep's shared instance of a pattern microbenchmark.
func (sw *Sweep) patternProg(name string) (*lbic.Program, error) {
	return sw.progs.get("pat/"+name, func() (*lbic.Program, error) { return lbic.BuildPattern(name) })
}

// WithInsts returns a copy of the sweep at a different budget, sharing the
// failure log (lbictables runs ablations at a reduced budget but reports one
// combined failure appendix).
func (sw *Sweep) WithInsts(insts uint64) *Sweep {
	c := *sw
	c.Insts = insts
	return &c
}

// CellError is one failed or skipped cell.
type CellError struct {
	Key string
	Err error
}

type failureLog struct {
	mu   sync.Mutex
	list []CellError
}

func (l *failureLog) add(e CellError) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list = append(l.list, e)
}

// Failures returns every cell that failed or was skipped across all
// experiments run through this sweep (and any WithInsts copies), in
// completion order.
func (sw *Sweep) Failures() []CellError {
	sw.log.mu.Lock()
	defer sw.log.mu.Unlock()
	return append([]CellError(nil), sw.log.list...)
}

// WriteFailures writes the failure appendix of fails to w: a header
// counting the cells, then each distinct error once, in order of first
// appearance, followed by the keys of the cells it hit. Every lane of a
// panicked batch fails with one error carrying the goroutine stack, so the
// stack appears once however many cells it took down.
func WriteFailures(w io.Writer, fails []CellError) {
	var msgs []string
	keys := map[string][]string{}
	for _, f := range fails {
		msg := f.Err.Error()
		if keys[msg] == nil {
			msgs = append(msgs, msg)
		}
		keys[msg] = append(keys[msg], f.Key)
	}
	fmt.Fprintf(w, "\n%d cell(s) failed or were skipped:\n", len(fails))
	for _, msg := range msgs {
		fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(msg, "\n", "\n  "))
		for _, k := range keys[msg] {
			fmt.Fprintf(w, "    cell %s\n", k)
		}
	}
}

// FirstLine returns the first line of err's message, for progress output:
// a panic's error carries its goroutine stack on the lines below.
func FirstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}

func (sw *Sweep) context() context.Context {
	ctx := sw.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if sw.Spans != nil {
		ctx = lbic.WithTrace(ctx, sw.Spans)
	}
	return ctx
}

// cell is one table cell, keyed by its configuration. A simulation cell carries
// its spec and runs as a lane of its stream group's batch; any other cell
// (characterization, reference-stream analysis) runs its own function.
type cell[T any] struct {
	Key string
	run func(ctx context.Context) (T, error)
	sim *simSpec[T]
}

// simSpec is one simulation: a configuration of one stream, reduced to the
// cell's value by pick. Cells whose specs share a group consume
// byte-identical dynamic streams and run as the lanes of one batch; memoKey
// names the simulated point across key namespaces, so two views of one
// simulation (its IPC and its conflict rate) share a single Result.
type simSpec[T any] struct {
	group  string
	source func() (lbic.Source, error)
	port   lbic.PortConfig
	insts  uint64
	mut    func(*lbic.Config)
	// replay streams a program through the sweep's trace cache.
	replay  bool
	pick    func(*lbic.Result) T
	memoKey string
}

// config is the spec's simulation configuration.
func (s *simSpec[T]) config(tc *lbic.TraceCache) lbic.Config {
	cfg := lbic.DefaultConfig()
	cfg.Port = s.port
	cfg.MaxInsts = s.insts
	if s.replay {
		cfg.Trace = tc
	}
	if s.mut != nil {
		s.mut(&cfg)
	}
	return cfg
}

// resultMemo caches completed simulation Results by memoKey for the lifetime
// of one sweep, so the same simulated point feeding two tables (e.g. the IPC
// and conflict-rate views of one generator run) is executed once. Replay
// determinism makes the second Result identical, so reuse cannot change any
// output.
type resultMemo struct {
	mu sync.Mutex
	m  map[string]*lbic.Result
}

func (m *resultMemo) get(key string) (*lbic.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.m[key]
	return r, ok
}

func (m *resultMemo) put(key string, r *lbic.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = r
}

// outcome is one member cell's result inside a runner cell's value.
type outcome[T any] struct {
	v T
	// res is the simulation behind v; nil for other cells.
	res *lbic.Result
	err error
}

// sweepRun executes cells under the sweep's policy and returns the
// successful values keyed by cell key; failed and skipped cells are recorded
// in the failure log and simply absent from the map. The error is nil unless
// the context was canceled or (without KeepGoing) a cell failed.
//
// Cells whose simulation an earlier table of this sweep ran settle up front.
// Every other simulation cell joins its stream group, and each group runs as
// one lane batch of its full width, a batch of one included
// (lbic.SimulateBatch). Each batch is one runner cell; its timeout is the
// cell timeout times its width, since it does that many lanes of work, and
// its members settle — memo, failure log, OnCell — once, when it finishes.
func sweepRun[T any](sw *Sweep, cells []cell[T]) (map[string]T, error) {
	out := make(map[string]T, len(cells))
	failed := map[string]error{}
	settle := func(c cell[T], o outcome[T]) {
		if o.err == nil {
			out[c.Key] = o.v
			if o.res != nil {
				sw.memo.put(c.sim.memoKey, o.res)
			}
		} else {
			sw.log.add(CellError{Key: c.Key, Err: o.err})
			if !errors.Is(o.err, runner.ErrSkipped) {
				failed[c.Key] = o.err
			}
		}
		if sw.OnCell != nil {
			sw.OnCell(c.Key, o.err)
		}
	}

	// plan lists each runner cell's members in launch order: a stream
	// group's batch sits where its first member appeared.
	var plan [][]cell[T]
	groups := map[string]int{}
	for _, c := range cells {
		if c.sim != nil {
			if res, ok := sw.memo.get(c.sim.memoKey); ok {
				settle(c, outcome[T]{v: c.sim.pick(res)})
				continue
			}
			if i, ok := groups[c.sim.group]; ok {
				plan[i] = append(plan[i], c)
				continue
			}
			groups[c.sim.group] = len(plan)
		}
		plan = append(plan, []cell[T]{c})
	}

	units := make([]runner.Cell[[]outcome[T]], len(plan))
	for i, ms := range plan {
		units[i] = newUnit(sw, ms, func(r runner.Result[[]outcome[T]]) {
			for j, c := range ms {
				o := outcome[T]{err: r.Err}
				if r.Value != nil {
					o = r.Value[j]
				}
				settle(c, o)
			}
		})
	}
	opts := runner.Options{Jobs: sw.Jobs, KeepGoing: sw.KeepGoing, Stop: sw.Stop}
	ctx := sw.context()
	if _, err := runner.Run(ctx, units, opts); err != nil {
		if ctx.Err() == nil {
			// Name the first failed table cell, not the batch it rode in.
			for _, c := range cells {
				if ferr, ok := failed[c.Key]; ok {
					return out, fmt.Errorf("runner: cell %q: %w", c.Key, ferr)
				}
			}
		}
		return out, err
	}
	return out, nil
}

// newUnit wraps members as one runner cell: a stream group's simulation cells
// as one lane batch (keyed by the member's own key when it runs alone), or
// a single other cell.
func newUnit[T any](sw *Sweep, ms []cell[T], settled func(runner.Result[[]outcome[T]])) runner.Cell[[]outcome[T]] {
	c := runner.Cell[[]outcome[T]]{Key: ms[0].Key, Timeout: sw.Timeout * time.Duration(len(ms)), Settled: settled}
	if len(ms) > 1 {
		c.Key = fmt.Sprintf("lane/%s/k%d", ms[0].sim.group, len(ms))
	}
	if ms[0].sim != nil {
		c.Labels = []string{"lanes", strconv.Itoa(len(ms))}
		c.Run = func(ctx context.Context) ([]outcome[T], error) { return runBatch(ctx, sw, ms) }
		return c
	}
	run := ms[0].run
	c.Run = func(ctx context.Context) ([]outcome[T], error) {
		v, err := run(ctx)
		return []outcome[T]{{v: v, err: err}}, err
	}
	return c
}

// runBatch runs one stream group's cells as the lanes of one batch. A lane's
// failure is returned as the batch's error too, so the runner counts the
// batch as failed, and a fail-fast sweep stops, exactly as for that cell
// alone; the batch's other lanes keep their own outcomes.
func runBatch[T any](ctx context.Context, sw *Sweep, ms []cell[T]) ([]outcome[T], error) {
	src, err := ms[0].sim.source()
	if err != nil {
		return nil, err
	}
	cfgs := make([]lbic.Config, len(ms))
	for i, c := range ms {
		cfgs[i] = c.sim.config(sw.Trace)
	}
	results, errs, err := lbic.SimulateBatch(ctx, src, cfgs)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome[T], len(ms))
	var first error
	for i, c := range ms {
		if errs[i] != nil {
			outs[i].err = errs[i]
			if first == nil {
				first = errs[i]
			}
			continue
		}
		outs[i] = outcome[T]{v: c.sim.pick(&results[i]), res: &results[i]}
	}
	return outs, first
}

// --- cell constructors ---
// Keys are stable, human-readable encodings of the full cell configuration.
// A simulation cell's key doubles as its memo identity, so anything that
// changes the simulated configuration must appear in the key.

// simBench is one benchmark under one port organization at the sweep budget.
func (sw *Sweep) simBench(name string, port lbic.PortConfig) cell[float64] {
	return sw.simBenchMut(name, port, "", nil)
}

// simBenchMut is simBench with a Config mutation; suffix must uniquely
// encode the mutation (e.g. "lsq32") since PortConfig.Name does not see it.
func (sw *Sweep) simBenchMut(name string, port lbic.PortConfig, suffix string, mut func(*lbic.Config)) cell[float64] {
	key := fmt.Sprintf("sim/%s/%s/i%d", name, port.Key(), sw.Insts)
	if suffix != "" {
		key += "/" + suffix
	}
	// The full cell key doubles as the duplicate-sim memo identity: the
	// same (program, port, budget, mutation) point appearing in two tables
	// of one invocation is simulated once.
	return sw.progCell(key, key, "bench/"+name, sw.benchProg, name, port, mut, pickIPC)
}

// simPattern is one access-pattern microbenchmark under one port
// organization.
func (sw *Sweep) simPattern(name string, port lbic.PortConfig) cell[float64] {
	key := fmt.Sprintf("sim/pat:%s/%s/i%d", name, port.Key(), sw.Insts)
	return sw.progCell(key, key, "pat/"+name, sw.patternProg, name, port, nil, pickIPC)
}

// simBenchConflict is simBench reduced to the port conflict rate (stalled
// requests per granted access). Distinct key namespace — the cell's value
// differs — but the memo key matches the IPC cell's, so the same
// (benchmark, port, budget) point appearing in an IPC table and a conflict
// table is simulated once.
func (sw *Sweep) simBenchConflict(name string, port lbic.PortConfig) cell[float64] {
	key := fmt.Sprintf("sim/conf/%s/%s/i%d", name, port.Key(), sw.Insts)
	memoKey := fmt.Sprintf("sim/%s/%s/i%d", name, port.Key(), sw.Insts)
	return sw.progCell(key, memoKey, "bench/"+name, sw.benchProg, name, port, nil,
		func(r *lbic.Result) float64 { return r.PortConflictRate() })
}

// progCell is a simulation cell over the sweep's shared instance of a
// program, replayed through the sweep's trace cache; stream names the
// program for grouping.
func (sw *Sweep) progCell(key, memoKey, stream string, prog func(string) (*lbic.Program, error), name string,
	port lbic.PortConfig, mut func(*lbic.Config), pick func(*lbic.Result) float64) cell[float64] {
	return cell[float64]{Key: key, sim: &simSpec[float64]{
		group: fmt.Sprintf("%s/i%d", stream, sw.Insts),
		source: func() (lbic.Source, error) {
			p, err := prog(name)
			return lbic.ProgramSource(p), err
		},
		port: port, insts: sw.Insts, mut: mut, replay: true, pick: pick, memoKey: memoKey,
	}}
}

func pickIPC(r *lbic.Result) float64 { return r.IPC }

// charCell measures a benchmark's Table 2 characteristics against a given
// L1 geometry.
func (sw *Sweep) charCell(name string, geom lbic.Geometry) cell[lbic.BenchmarkStats] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("char/%s/%s/i%d", name, geomKey(geom), insts)
	return cell[lbic.BenchmarkStats]{Key: key, run: func(ctx context.Context) (lbic.BenchmarkStats, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return lbic.BenchmarkStats{}, err
		}
		return lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: insts, Geom: geom, Trace: tc})
	}}
}

// missRateCell is charCell reduced to the miss rate, for the capacity and
// associativity grids. Distinct key namespace: the cell's value differs.
func (sw *Sweep) missRateCell(name string, geom lbic.Geometry) cell[float64] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("miss/%s/%s/i%d", name, geomKey(geom), insts)
	return cell[float64]{Key: key, run: func(ctx context.Context) (float64, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return 0, err
		}
		s, err := lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: insts, Geom: geom, Trace: tc})
		if err != nil {
			return 0, err
		}
		return s.MissRate, nil
	}}
}

func geomKey(g lbic.Geometry) string {
	return fmt.Sprintf("s%d-a%d-l%d", g.Size, g.Assoc, g.LineSize)
}

// refCell computes a benchmark's consecutive-reference distribution over an
// infinite banks-way line-interleaved cache.
func (sw *Sweep) refCell(name string, banks, lineSize int) cell[lbic.Distribution] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("refs/%s/b%d-l%d/i%d", name, banks, lineSize, insts)
	return cell[lbic.Distribution]{Key: key, run: func(ctx context.Context) (lbic.Distribution, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return lbic.Distribution{}, err
		}
		return lbic.AnalyzeRefStream(ctx, prog, lbic.RefStreamOptions{Banks: banks, LineSize: lineSize, Insts: insts, Trace: tc})
	}}
}

// --- grid rendering ---

// errCell is how a failed or skipped cell renders in tables; the failure
// appendix carries the details.
const errCell = "ERR"

// fmtCell renders a value or ERR.
func fmtCell(v float64, ok bool, format func(float64) string) string {
	if !ok {
		return errCell
	}
	return format(v)
}

// column is one column of an IPC (or miss-rate) grid: a header and a cell
// constructor per benchmark.
type column struct {
	header string
	cell   func(bench string) cell[float64]
}

// grid runs a benches x columns sweep and renders it with a per-column
// average row over the successful cells (the historical hard-coded /10
// denominators silently mis-averaged partial sweeps; stats.Mean over the
// values actually present does not).
func grid(sw *Sweep, tableTitle string, benches []string, cols []column, format func(float64) string, withAvg bool) (*stats.Table, error) {
	if format == nil {
		format = stats.FormatIPC
	}
	keys := make([][]string, len(benches))
	var cells []cell[float64]
	for bi, b := range benches {
		keys[bi] = make([]string, len(cols))
		for ci, c := range cols {
			cell := c.cell(b)
			keys[bi][ci] = cell.Key
			cells = append(cells, cell)
		}
	}
	got, err := sweepRun(sw, cells)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, c := range cols {
		headers = append(headers, c.header)
	}
	t := stats.NewTable(tableTitle, headers...)
	colVals := make([][]float64, len(cols))
	for bi, b := range benches {
		row := []string{title(b)}
		for ci := range cols {
			v, ok := got[keys[bi][ci]]
			if ok {
				colVals[ci] = append(colVals[ci], v)
			}
			row = append(row, fmtCell(v, ok, format))
		}
		t.AddRow(row...)
	}
	if withAvg {
		row := []string{"Average"}
		for ci := range cols {
			row = append(row, fmtCell(stats.Mean(colVals[ci]), len(colVals[ci]) > 0, format))
		}
		t.AddRow(row...)
	}
	return t, nil
}
