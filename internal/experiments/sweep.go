package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"lbic"
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
	// plan is the plan the sweep's tables add their cells to; Run sets it
	// on its own copy of the sweep.
	plan *plan
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
		progs: &progCache{m: map[string]*progBuild{}},
	}
}

// progCache builds each program once per sweep. Programs are immutable once
// built, so cells share instances — which both skips redundant synthesis and
// lets the trace cache memoize program fingerprints by identity. Builds are
// per key: a cell waits only for the program it needs, never for another
// cell's build of a different one.
type progCache struct {
	mu sync.Mutex
	m  map[string]*progBuild
}

// progBuild is one program's build, shared by every cell that needs it. A
// build is deterministic, so its error is kept like its program.
type progBuild struct {
	once sync.Once
	p    *lbic.Program
	err  error
}

func (pc *progCache) get(key string, build func() (*lbic.Program, error)) (*lbic.Program, error) {
	pc.mu.Lock()
	b, ok := pc.m[key]
	if !ok {
		b = &progBuild{}
		pc.m[key] = b
	}
	pc.mu.Unlock()
	b.once.Do(func() {
		// Kept if build panics: the panic fails the cell that was building,
		// and every later cell gets this error instead of a nil program.
		b.err = fmt.Errorf("building %s panicked", key)
		b.p, b.err = build()
	})
	return b.p, b.err
}

// benchProg returns the sweep's shared instance of a benchmark kernel.
func (sw *Sweep) benchProg(name string) (*lbic.Program, error) {
	return sw.progs.get("bench/"+name, func() (*lbic.Program, error) { return lbic.BuildBenchmark(name) })
}

// patternProg returns the sweep's shared instance of a pattern microbenchmark.
func (sw *Sweep) patternProg(name string) (*lbic.Program, error) {
	return sw.progs.get("pat/"+name, func() (*lbic.Program, error) { return lbic.BuildPattern(name) })
}

// withInsts returns a copy of the sweep at a different budget, sharing its
// plan, programs and failure log: lbictables runs the ablations at a reduced
// budget in the same plan as the tables.
func (sw *Sweep) withInsts(insts uint64) *Sweep {
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
// experiments run through this sweep, in completion order.
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
// (characterization, reference-stream analysis) runs its own function. The
// value is a float64 for every simulation and grid cell, a
// lbic.BenchmarkStats for characterization and a lbic.Distribution for
// reference-stream analysis.
type cell struct {
	Key string
	// stream names the program or generator the cell reads, without its
	// budget ("bench/compress"): a plan never runs two units of one stream
	// at once.
	stream string
	run    func(ctx context.Context) (any, error)
	sim    *simSpec
}

// simSpec is one simulation: a configuration of one stream, reduced to the
// cell's value by pick. Cells of one table whose specs share a group consume
// byte-identical dynamic streams and run as the lanes of one batch; memoKey
// names the simulated point across key namespaces, so two views of one
// simulation (its IPC and its conflict rate) share a single Result.
type simSpec struct {
	group  string
	source func() (lbic.Source, error)
	port   lbic.PortConfig
	insts  uint64
	mut    func(*lbic.Config)
	// replay streams a program through the sweep's trace cache.
	replay  bool
	pick    func(*lbic.Result) float64
	memoKey string
}

// config is the spec's simulation configuration.
func (s *simSpec) config(tc *lbic.TraceCache) lbic.Config {
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

// --- cell constructors ---
// Keys are stable, human-readable encodings of the full cell configuration.
// A simulation cell's key doubles as its memo identity, so anything that
// changes the simulated configuration must appear in the key.

// simBench is one benchmark under one port organization at the sweep budget.
func (sw *Sweep) simBench(name string, port lbic.PortConfig) cell {
	return sw.simBenchMut(name, port, "", nil)
}

// simBenchMut is simBench with a Config mutation; suffix must uniquely
// encode the mutation (e.g. "lsq32") since PortConfig.Name does not see it.
func (sw *Sweep) simBenchMut(name string, port lbic.PortConfig, suffix string, mut func(*lbic.Config)) cell {
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
func (sw *Sweep) simPattern(name string, port lbic.PortConfig) cell {
	key := fmt.Sprintf("sim/pat:%s/%s/i%d", name, port.Key(), sw.Insts)
	return sw.progCell(key, key, "pat/"+name, sw.patternProg, name, port, nil, pickIPC)
}

// simBenchConflict is simBench reduced to the port conflict rate (stalled
// requests per granted access). Distinct key namespace — the cell's value
// differs — but the memo key matches the IPC cell's, so the same
// (benchmark, port, budget) point appearing in an IPC table and a conflict
// table is simulated once.
func (sw *Sweep) simBenchConflict(name string, port lbic.PortConfig) cell {
	key := fmt.Sprintf("sim/conf/%s/%s/i%d", name, port.Key(), sw.Insts)
	memoKey := fmt.Sprintf("sim/%s/%s/i%d", name, port.Key(), sw.Insts)
	return sw.progCell(key, memoKey, "bench/"+name, sw.benchProg, name, port, nil,
		func(r *lbic.Result) float64 { return r.PortConflictRate() })
}

// progCell is a simulation cell over the sweep's shared instance of a
// program, replayed through the sweep's trace cache; stream names the
// program for grouping.
func (sw *Sweep) progCell(key, memoKey, stream string, prog func(string) (*lbic.Program, error), name string,
	port lbic.PortConfig, mut func(*lbic.Config), pick func(*lbic.Result) float64) cell {
	return cell{Key: key, stream: stream, sim: &simSpec{
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
func (sw *Sweep) charCell(name string, geom lbic.Geometry) cell {
	key := fmt.Sprintf("char/%s/%s/i%d", name, geomKey(geom), sw.Insts)
	return sw.benchCell(key, name, func(ctx context.Context, prog *lbic.Program) (any, error) {
		return lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: sw.Insts, Geom: geom, Trace: sw.Trace})
	})
}

// missRateCell is charCell reduced to the miss rate, for the capacity and
// associativity grids. Distinct key namespace: the cell's value differs.
func (sw *Sweep) missRateCell(name string, geom lbic.Geometry) cell {
	key := fmt.Sprintf("miss/%s/%s/i%d", name, geomKey(geom), sw.Insts)
	return sw.benchCell(key, name, func(ctx context.Context, prog *lbic.Program) (any, error) {
		s, err := lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: sw.Insts, Geom: geom, Trace: sw.Trace})
		return s.MissRate, err
	})
}

func geomKey(g lbic.Geometry) string {
	return fmt.Sprintf("s%d-a%d-l%d", g.Size, g.Assoc, g.LineSize)
}

// refCell computes a benchmark's consecutive-reference distribution over an
// infinite banks-way line-interleaved cache.
func (sw *Sweep) refCell(name string, banks, lineSize int) cell {
	key := fmt.Sprintf("refs/%s/b%d-l%d/i%d", name, banks, lineSize, sw.Insts)
	return sw.benchCell(key, name, func(ctx context.Context, prog *lbic.Program) (any, error) {
		return lbic.AnalyzeRefStream(ctx, prog, lbic.RefStreamOptions{Banks: banks, LineSize: lineSize, Insts: sw.Insts, Trace: sw.Trace})
	})
}

// benchCell is a non-simulation cell over the sweep's shared instance of a
// benchmark kernel.
func (sw *Sweep) benchCell(key, name string, f func(context.Context, *lbic.Program) (any, error)) cell {
	return cell{Key: key, stream: "bench/" + name, run: func(ctx context.Context) (any, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return nil, err
		}
		return f(ctx, prog)
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
	cell   func(bench string) cell
}

// grid adds a benches x columns table to the sweep's plan and returns how it
// renders: with a per-column average row over the successful cells (the
// historical hard-coded /10 denominators silently mis-averaged partial
// sweeps; stats.Mean over the values actually present does not).
func grid(sw *Sweep, tableTitle string, benches []string, cols []column, format func(float64) string, withAvg bool) func() *stats.Table {
	if format == nil {
		format = stats.FormatIPC
	}
	keys := make([][]string, len(benches))
	var cells []cell
	for bi, b := range benches {
		keys[bi] = make([]string, len(cols))
		for ci, c := range cols {
			cell := c.cell(b)
			keys[bi][ci] = cell.Key
			cells = append(cells, cell)
		}
	}
	sw.plan.add(cells)
	return func() *stats.Table {
		headers := []string{"Program"}
		for _, c := range cols {
			headers = append(headers, c.header)
		}
		t := stats.NewTable(tableTitle, headers...)
		colVals := make([][]float64, len(cols))
		for bi, b := range benches {
			row := []string{title(b)}
			for ci := range cols {
				v, ok := sw.plan.vals[keys[bi][ci]].(float64)
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
		return t
	}
}
