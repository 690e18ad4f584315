// Command lbicledger prices the layers of one benchmark op for the traced
// mode of lbicbench. It reads one JSON work item per line on standard input
// (the kernels an op builds, records and characterizes, its lane batches,
// its single runs and its runner cells), replays that work layer by layer
// while timing each layer's exported functions on the op's own inputs, and
// writes one JSON line back: milliseconds per op by layer, and the unit
// costs and exact counts by metric name.
//
// It never calls the root package's Simulate entry points: a run is
// assembled from internal/ports, internal/cache and internal/cpu directly,
// so each layer's time is measured on its own. The op's simulations run two
// at a time, as lbictables -jobs 2 and lbicd -jobs 2 run them, so each timed
// section includes the contention of its concurrent neighbor, as the op's
// CPU time does.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"lbic"
	"lbic/internal/cache"
	"lbic/internal/core"
	"lbic/internal/cpu"
	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/refstream"
	"lbic/internal/runner"
	"lbic/internal/trace"
	"lbic/internal/tracecache"
	"lbic/internal/workload"
)

type work struct {
	Insts        uint64   `json:"insts"`
	Build        []string `json:"build"`
	Record       []string `json:"record"`
	Characterize []string `json:"characterize"`
	RefStream    []string `json:"refstream"`
	Batches      []batch  `json:"batches"`
	Cells        []cell   `json:"cells"`
	RunnerCells  int      `json:"runner_cells"`
	Scale        float64  `json:"scale"`
}

// jobs is how many simulations and runner cells every benchmarked op runs
// at once.
const jobs = 2

type batch struct {
	Source string   `json:"source"`
	Ports  []string `json:"ports"`
}

type cell struct {
	Source string `json:"source"`
	Port   string `json:"port"`
}

type reply struct {
	Rows  map[string]float64 `json:"rows,omitempty"`
	Units map[string]float64 `json:"units,omitempty"`
	Error string             `json:"error,omitempty"`
}

func main() {
	l := &ledger{traces: map[traceKey]*tracecache.Trace{}, decoded: map[traceKey][]trace.Dyn{},
		grants: map[string][]grantCall{}}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 64<<10), 16<<20)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var w work
		var rep reply
		if err := json.Unmarshal(in.Bytes(), &w); err != nil {
			rep.Error = fmt.Sprintf("decoding work: %v", err)
		} else if rows, units, err := l.price(w); err != nil {
			rep.Error = err.Error()
		} else {
			rep.Rows, rep.Units = rows, units
		}
		if err := out.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "lbicledger:", err)
			os.Exit(1)
		}
	}
}

type traceKey struct {
	name  string
	insts uint64
}

// ledger keeps the inputs that are set-up rather than op work in a served
// workload (recorded traces, pre-decoded records, captured ready sets)
// across work items.
type ledger struct {
	traces  map[traceKey]*tracecache.Trace
	decoded map[traceKey][]trace.Dyn
	grants  map[string][]grantCall
}

// pass accumulates one work item's timed sections by layer row and the
// work they covered.
type pass struct {
	rows  map[string]time.Duration
	spent map[string]time.Duration // by unit-cost metric
	units map[string]float64       // work done, by unit-cost metric
	// exact counts over every simulated run
	cycles, committed, fastForwarded uint64
	accesses, misses                 float64
}

// timed runs f and charges its duration to a layer row (none when row is
// "") and to a unit-cost metric covering work units of work.
func (p *pass) timed(row, metric string, work float64, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if row != "" {
		p.rows[row] += d
	}
	if metric != "" {
		p.spent[metric] += d
		p.units[metric] += work
	}
	return d, err
}

// charge adds an already measured duration to a row and a metric.
func (p *pass) charge(row, metric string, d time.Duration, work float64) {
	if row != "" {
		p.rows[row] += d
	}
	p.spent[metric] += d
	p.units[metric] += work
}

func newPass() *pass {
	return &pass{rows: map[string]time.Duration{}, spent: map[string]time.Duration{}, units: map[string]float64{}}
}

// merge adds another worker's pass into p.
func (p *pass) merge(o *pass) {
	for k, v := range o.rows {
		p.rows[k] += v
	}
	for k, v := range o.spent {
		p.spent[k] += v
	}
	for k, v := range o.units {
		p.units[k] += v
	}
	p.cycles += o.cycles
	p.committed += o.committed
	p.fastForwarded += o.fastForwarded
	p.accesses += o.accesses
	p.misses += o.misses
}

func (p *pass) count(st cpu.Stats, ff uint64, ms cache.Stats) {
	p.cycles += st.Cycles
	p.committed += st.Committed
	p.fastForwarded += ff
	p.accesses += float64(ms.Accesses)
	p.misses += ms.MissRate() * float64(ms.Accesses)
}

// unitScale converts a metric's accumulated duration per unit of work to
// the metric's unit.
var unitScale = map[string]time.Duration{
	"workload.build_ms":  time.Millisecond,
	"runner.us_per_cell": time.Microsecond,
	"lbic.run_fixed_us":  time.Microsecond,
	"lbic.report_us":     time.Microsecond,
}

func (l *ledger) price(w work) (rows, units map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if w.Insts == 0 {
		return nil, nil, fmt.Errorf("work has no instruction budget")
	}
	p := newPass()
	if err := l.opWork(p, w); err != nil {
		return nil, nil, err
	}
	if err := l.probe(p, w); err != nil {
		return nil, nil, err
	}
	rows = map[string]float64{}
	for _, row := range []string{"cpu", "tracecache", "workload", "sweep", "lbic"} {
		rows[row] = float64(p.rows[row]) / float64(time.Millisecond) * w.Scale
	}
	units = map[string]float64{}
	for m, d := range p.spent {
		scale, ok := unitScale[m]
		if !ok {
			scale = time.Nanosecond
		}
		if p.units[m] > 0 {
			units[m] = float64(d) / float64(scale) / p.units[m]
		}
	}
	if p.committed == 0 || p.accesses == 0 {
		return nil, nil, fmt.Errorf("no simulated instructions")
	}
	units["cpu.cycles_per_inst"] = float64(p.cycles) / float64(p.committed)
	units["cpu.fastforward_share"] = float64(p.fastForwarded) / float64(p.cycles)
	units["cache.l1_miss_rate"] = p.misses / p.accesses
	return rows, units, nil
}

// opWork replays the op's own work, charging every layer row.
func (l *ledger) opWork(p *pass, w work) error {
	n := float64(w.Insts)
	var tasks []func(*pass) error
	for _, name := range w.Build {
		tasks = append(tasks, func(p *pass) error {
			_, err := p.timed("workload", "workload.build_ms", 1, func() error {
				_, err := buildKernel(name)
				return err
			})
			return err
		})
	}
	for _, name := range w.Record {
		tasks = append(tasks, func(p *pass) error {
			prog, err := buildKernel(name)
			if err != nil {
				return err
			}
			return recordTrace(p, "workload", "tracecache", prog, w.Insts)
		})
	}
	geom := cache.Geometry{Size: 32 << 10, LineSize: 32, Assoc: 1}
	for _, name := range w.Characterize {
		tasks = append(tasks, func(p *pass) error {
			_, err := p.timed("workload", "", n, func() error {
				_, err := workload.CharacterizeStream(name, l.traces[traceKey{name, w.Insts}].NewReader(), w.Insts, geom)
				return err
			})
			return err
		})
	}
	for _, name := range w.RefStream {
		tasks = append(tasks, func(p *pass) error {
			_, err := p.timed("workload", "", n, func() error {
				_, err := refstream.Analyze(l.traces[traceKey{name, w.Insts}].NewReader(), 4, 32, w.Insts)
				return err
			})
			return err
		})
	}
	for _, b := range w.Batches {
		tasks = append(tasks, func(p *pass) error { return l.runBatch(p, true, b, w.Insts) })
	}
	for _, c := range w.Cells {
		tasks = append(tasks, func(p *pass) error { return l.runCell(p, true, c, w.Insts) })
	}
	if err := l.parallel(p, w, tasks); err != nil {
		return err
	}
	if w.RunnerCells > 0 {
		if err := runnerCells(p, "sweep", w.RunnerCells); err != nil {
			return err
		}
	}
	return nil
}

// parallel runs the op's tasks on jobs workers pulling from one queue, as
// the op's runner does, each charging its own pass.
func (l *ledger) parallel(p *pass, w work, tasks []func(*pass) error) error {
	// Record every replayed source up front: the workers only read the
	// trace map.
	for _, b := range w.Batches {
		if _, err := l.source(b.Source, w.Insts); err != nil {
			return err
		}
	}
	for _, names := range [][]string{w.Characterize, w.RefStream} {
		for _, name := range names {
			if _, err := l.trace(name, w.Insts); err != nil {
				return err
			}
		}
	}
	for _, c := range w.Cells {
		if _, err := l.trace(c.Source, w.Insts); err != nil {
			return err
		}
	}
	queue := make(chan func(*pass) error)
	passes := make([]*pass, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := range jobs {
		passes[i] = newPass()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range queue {
				if err := task(passes[i]); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}()
	}
	for _, task := range tasks {
		queue <- task
	}
	close(queue)
	wg.Wait()
	for i := range passes {
		if errs[i] != nil {
			return errs[i]
		}
		p.merge(passes[i])
	}
	return nil
}

// probe measures, off the ledger, every unit cost the op's own work did
// not exercise, on the op's own kernels and ports.
func (l *ledger) probe(p *pass, w work) error {
	var kernels []string
	var portNames []string
	for _, b := range w.Batches {
		if !strings.HasPrefix(b.Source, "gen:") {
			kernels = append(kernels, b.Source)
			portNames = append(portNames, b.Ports...)
		}
	}
	for _, c := range w.Cells {
		kernels = append(kernels, c.Source)
		portNames = append(portNames, c.Port)
	}
	if len(kernels) == 0 {
		return fmt.Errorf("work names no kernel")
	}
	k0 := kernels[0]
	if p.units["workload.build_ms"] == 0 {
		if _, err := p.timed("", "workload.build_ms", 1, func() error {
			_, err := buildKernel(k0)
			return err
		}); err != nil {
			return err
		}
	}
	if p.units["emu.ns_per_inst"] == 0 {
		prog, err := buildKernel(k0)
		if err != nil {
			return err
		}
		if err := recordTrace(p, "", "", prog, w.Insts); err != nil {
			return err
		}
	}
	if p.units["workload.gen_ns_per_inst"] == 0 {
		params := lbic.GenParams{Kind: workload.GenKinds()[0]}
		if _, err := drainGen(p, "", params, w.Insts); err != nil {
			return err
		}
	}
	probeCells := min(4, len(portNames))
	if p.units["cpu.ns_per_inst"] == 0 {
		for i := range probeCells {
			if err := l.runCell(p, false, cell{kernels[min(i, len(kernels)-1)], portNames[i]}, w.Insts); err != nil {
				return err
			}
		}
	}
	if p.units["cpu.lane_ns_per_lane_inst"] == 0 {
		if err := l.runBatch(p, false, batch{k0, portNames[:probeCells]}, w.Insts); err != nil {
			return err
		}
	}
	if p.units["runner.us_per_cell"] == 0 {
		if err := runnerCells(p, "", 64); err != nil {
			return err
		}
	}
	if err := l.grantCosts(p, k0, w.Insts); err != nil {
		return err
	}
	return l.accessCost(p, k0, w.Insts)
}

func buildKernel(name string) (*isa.Program, error) {
	in, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	return in.Build(), nil
}

// trace returns a kernel's recorded trace, recording it untimed on first
// use: in a served workload recording is set-up, not op work.
func (l *ledger) trace(name string, insts uint64) (*tracecache.Trace, error) {
	k := traceKey{name, insts}
	if t, ok := l.traces[k]; ok {
		return t, nil
	}
	prog, err := buildKernel(name)
	if err != nil {
		return nil, err
	}
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	t := tracecache.RecordWith(m, tracecache.RecordOptions{MaxInsts: insts})
	l.traces[k] = t
	return t, nil
}

// records returns a kernel's trace decoded into memory, the input the
// grant and cache-access costs replay.
func (l *ledger) records(name string, insts uint64) ([]trace.Dyn, error) {
	k := traceKey{name, insts}
	if d, ok := l.decoded[k]; ok {
		return d, nil
	}
	t, err := l.trace(name, insts)
	if err != nil {
		return nil, err
	}
	d := make([]trace.Dyn, 0, t.Len())
	r := t.NewReader()
	var dyn trace.Dyn
	for r.Next(&dyn) {
		d = append(d, dyn)
	}
	l.decoded[k] = d
	return d, nil
}

// recordTrace times the emulator alone and then a recording of it; the
// recording's excess over the emulator is the trace encoder's cost.
func recordTrace(p *pass, emuRow, recRow string, prog *isa.Program, insts uint64) error {
	n := float64(insts)
	m, err := emu.New(prog)
	if err != nil {
		return err
	}
	var d trace.Dyn
	emuTime, _ := p.timed(emuRow, "emu.ns_per_inst", n, func() error {
		for i := uint64(0); i < insts && m.Next(&d); i++ {
		}
		return nil
	})
	m, err = emu.New(prog)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tracecache.RecordWith(m, tracecache.RecordOptions{MaxInsts: insts})
	p.charge(recRow, "tracecache.record_ns_per_inst", max(time.Since(t0)-emuTime, 0), n)
	return nil
}

// genParams resolves a generator key such as "gen:zipf:s1:..." to the
// catalog-default parameters it names.
func genParams(key string) (lbic.GenParams, error) {
	for _, kind := range workload.GenKinds() {
		p := lbic.GenParams{Kind: kind}
		if q, err := p.Resolve(); err == nil && q.Key() == key {
			return p, nil
		}
	}
	return lbic.GenParams{}, fmt.Errorf("no default generator has key %q", key)
}

// drainGen times synthesizing a generator's stream.
func drainGen(p *pass, row string, params lbic.GenParams, insts uint64) (time.Duration, error) {
	s, err := params.Stream()
	if err != nil {
		return 0, err
	}
	var d trace.Dyn
	return p.timed(row, "workload.gen_ns_per_inst", float64(insts), func() error {
		for i := uint64(0); i < insts && s.Next(&d); i++ {
		}
		return nil
	})
}

// source returns a fresh stream factory for a batch or cell source.
func (l *ledger) source(name string, insts uint64) (func() (trace.Stream, error), error) {
	if strings.HasPrefix(name, "gen:") {
		params, err := genParams(name)
		if err != nil {
			return nil, err
		}
		return params.Stream, nil
	}
	t, err := l.trace(name, insts)
	if err != nil {
		return nil, err
	}
	return func() (trace.Stream, error) { return t.NewReader(), nil }, nil
}

// batchWindow mirrors the library's lane batches: a shared decode window
// of two scheduler chunks, filled a chunk at a time.
const batchWindow = 2 * cpu.LaneChunk

func newCursor(src trace.Stream) *tracecache.SharedCursor {
	cur := tracecache.NewSharedCursor(src, batchWindow)
	cur.SetBatchFill(cpu.LaneChunk)
	return cur
}

// runBatch steps one lane batch with cpu.RunLanes. The cursor's own cost is
// timed by draining a second cursor with the same lanes in the scheduler's
// chunk order, and the generator's by draining it alone; the core's share
// is what RunLanes took beyond the cursor. op charges the rows; a probe
// only measures unit costs.
func (l *ledger) runBatch(p *pass, op bool, b batch, insts uint64) error {
	row := func(r string) string {
		if op {
			return r
		}
		return ""
	}
	n := float64(insts)
	k := float64(len(b.Ports))
	src, err := l.source(b.Source, insts)
	if err != nil {
		return err
	}
	var genTime time.Duration
	if strings.HasPrefix(b.Source, "gen:") {
		params, _ := genParams(b.Source)
		if genTime, err = drainGen(p, row("workload"), params, insts); err != nil {
			return err
		}
	}
	s, err := src()
	if err != nil {
		return err
	}
	cur := newCursor(s)
	readers := make([]*tracecache.LaneReader, len(b.Ports))
	for i := range readers {
		readers[i] = cur.NewLaneReader()
	}
	t0 := time.Now()
	var d trace.Dyn
	for live, target := len(readers), uint64(0); live > 0; {
		target += cpu.LaneChunk
		for i, r := range readers {
			if r == nil {
				continue
			}
			for r.Pos() < target && r.Pos() < insts {
				if !r.Next(&d) {
					break
				}
			}
			if r.Pos() >= insts || r.Pos() < target {
				r.Close()
				readers[i] = nil
				live--
			}
		}
	}
	cursorTime := time.Since(t0)
	p.charge(row("tracecache"), "tracecache.cursor_ns_per_lane_inst", max(cursorTime-genTime, 0), k*n)

	s, err = src()
	if err != nil {
		return err
	}
	cur = newCursor(s)
	cores := make([]*cpu.Core, len(b.Ports))
	hiers := make([]*cache.Hierarchy, len(b.Ports))
	for i, name := range b.Ports {
		if _, err := p.timed(row("lbic"), "lbic.run_fixed_us", 1, func() (err error) {
			cores[i], hiers[i], err = assemble(cur.NewLaneReader(), name, insts)
			return err
		}); err != nil {
			return err
		}
	}
	t0 = time.Now()
	errs := cpu.RunLanes(context.Background(), cores)
	p.charge(row("cpu"), "cpu.lane_ns_per_lane_inst", max(time.Since(t0)-cursorTime, 0), k*n)
	for i, c := range cores {
		if errs[i] != nil {
			return fmt.Errorf("%s on %s: %w", b.Source, b.Ports[i], errs[i])
		}
		p.count(c.Stats(), c.FastForwarded(), hiers[i].Stats())
	}
	return nil
}

// runCell is one single run as lbicd executes it: replay the trace into a
// freshly assembled run, step the core, and write its report. The core's
// share is the run's time beyond decoding the same trace alone.
func (l *ledger) runCell(p *pass, op bool, c cell, insts uint64) error {
	row := func(r string) string {
		if op {
			return r
		}
		return ""
	}
	n := float64(insts)
	t, err := l.trace(c.Source, insts)
	if err != nil {
		return err
	}
	var d trace.Dyn
	r := t.NewReader()
	decode, _ := p.timed(row("tracecache"), "tracecache.replay_ns_per_inst", n, func() error {
		for r.Next(&d) {
		}
		return nil
	})
	var core *cpu.Core
	var hier *cache.Hierarchy
	if _, err := p.timed(row("lbic"), "lbic.run_fixed_us", 1, func() (err error) {
		core, hier, err = assemble(t.NewReader(), c.Port, insts)
		return err
	}); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := core.RunContext(context.Background())
	if err != nil {
		return fmt.Errorf("%s on %s: %w", c.Source, c.Port, err)
	}
	p.charge(row("cpu"), "cpu.ns_per_inst", max(time.Since(t0)-decode, 0), n)
	p.count(st, core.FastForwarded(), hier.Stats())
	port, err := lbic.ParsePortName(c.Port)
	if err != nil {
		return err
	}
	res := lbic.Result{Benchmark: c.Source, Port: port, Cycles: st.Cycles, Insts: st.Committed,
		IPC: st.IPC(), CPU: st, Mem: hier.Stats()}
	_, err = p.timed(row("lbic"), "lbic.report_us", 1, func() error {
		var buf bytes.Buffer
		return lbic.NewReport(res).WriteJSON(&buf)
	})
	return err
}

// assemble builds one run's arbiter, hierarchy and core over a stream, as
// the library does for every run.
func assemble(s trace.Stream, portName string, insts uint64) (*cpu.Core, *cache.Hierarchy, error) {
	port, err := lbic.ParsePortName(portName)
	if err != nil {
		return nil, nil, err
	}
	params := cache.DefaultParams()
	arb, err := arbiterFor(port, params.L1.LineSize)
	if err != nil {
		return nil, nil, err
	}
	hier, err := cache.NewHierarchy(params)
	if err != nil {
		return nil, nil, err
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = insts
	c, err := cpu.New(s, hier, arb, cfg)
	return c, hier, err
}

// arbiterFor constructs a port organization's arbiter, mirroring the
// registry's factories.
func arbiterFor(p lbic.PortConfig, lineSize int) (ports.Arbiter, error) {
	switch p.Kind {
	case lbic.Ideal:
		return ports.NewIdeal(p.Width)
	case lbic.Replicated:
		return ports.NewReplicated(p.Width)
	case lbic.Banked:
		return ports.NewBankedSelector(p.Banks, lineSize, p.Selector)
	case lbic.LBIC:
		policy := core.PolicyLeading
		if p.Greedy {
			policy = core.PolicyGreedy
		}
		return core.New(core.Config{Banks: p.Banks, LinePorts: p.LinePorts, LineSize: lineSize,
			StoreQueueDepth: p.StoreQueueDepth, Policy: policy})
	case lbic.VirtualMultiport:
		return ports.NewVirtual(p.Width)
	case lbic.BankedStoreQueue:
		return ports.NewBankedSQ(p.Banks, lineSize, p.StoreQueueDepth)
	case lbic.MultiPortedBanks:
		return ports.NewMultiPortedBanks(p.Banks, p.Width, lineSize)
	case lbic.Coded:
		return ports.NewCoded(ports.CodedConfig{Banks: p.Banks, ParityBanks: p.ParityBanks, LineSize: lineSize,
			UpdateQueueDepth: p.StoreQueueDepth, LinePorts: p.LinePorts, Speculative: p.Speculative})
	}
	return nil, fmt.Errorf("no arbiter for port %s", p.Name())
}

// runnerCells times runner.Run scheduling no-op cells jobs at a time.
func runnerCells(p *pass, row string, n int) error {
	cells := make([]runner.Cell[struct{}], n)
	for i := range cells {
		cells[i] = runner.Cell[struct{}]{Key: fmt.Sprintf("noop/%d", i),
			Run: func(context.Context) (struct{}, error) { return struct{}{}, nil }}
	}
	_, err := p.timed(row, "runner.us_per_cell", float64(n), func() error {
		_, err := runner.Run(context.Background(), cells, runner.Options{Jobs: jobs})
		return err
	})
	return err
}

// grantCall is one Arbiter.Grant call of a real run.
type grantCall struct {
	now   uint64
	ready []ports.Request
}

// capture records every Grant call while passing it through, and keeps
// the inner arbiter's quiescence so the core's idle fast-forward is
// unchanged.
type capture struct {
	ports.Arbiter
	calls []grantCall
}

func (c *capture) Grant(now uint64, ready []ports.Request, dst []int) []int {
	c.calls = append(c.calls, grantCall{now, append([]ports.Request(nil), ready...)})
	return c.Arbiter.Grant(now, ready, dst)
}

func (c *capture) Quiescent() bool {
	q, ok := c.Arbiter.(ports.Quiescer)
	return ok && q.Quiescent()
}

// representative picks one configuration of a registered kind: its first
// axis entry, else the first of a few small shapes its grammar accepts.
func representative(o lbic.PortOrgInfo) (lbic.PortConfig, error) {
	if len(o.Axis) > 0 {
		return o.Axis[0], nil
	}
	for _, shape := range []string{"-4", "-4x2", "-4x1"} {
		if p, err := lbic.ParsePortName(o.Token + shape); err == nil {
			return p, nil
		}
	}
	return lbic.PortConfig{}, fmt.Errorf("no representative configuration of port kind %s", o.Token)
}

// grantCosts prices Arbiter.Grant for every registered wire kind: the
// ready sets of one real run of the kernel on the kind's representative
// configuration are captured once, then replayed in order into a fresh
// arbiter, which reproduces the run's grant decisions exactly.
func (l *ledger) grantCosts(p *pass, kernel string, insts uint64) error {
	lineSize := cache.DefaultParams().L1.LineSize
	for _, o := range lbic.PortOrganizations() {
		if !o.Wire {
			continue
		}
		cfg, err := representative(o)
		if err != nil {
			return err
		}
		key := kernel + "/" + cfg.Key()
		calls, ok := l.grants[key]
		if !ok {
			recs, err := l.records(kernel, insts)
			if err != nil {
				return err
			}
			arb, err := arbiterFor(cfg, lineSize)
			if err != nil {
				return err
			}
			capt := &capture{Arbiter: arb}
			hier, err := cache.NewHierarchy(cache.DefaultParams())
			if err != nil {
				return err
			}
			ccfg := cpu.DefaultConfig()
			ccfg.MaxInsts = insts
			c, err := cpu.New(trace.NewSliceStream(recs), hier, capt, ccfg)
			if err != nil {
				return err
			}
			if _, err := c.RunContext(context.Background()); err != nil {
				return err
			}
			calls = capt.calls
			l.grants[key] = calls
		}
		arb, err := arbiterFor(cfg, lineSize)
		if err != nil {
			return err
		}
		dst := make([]int, 0, 64)
		p.timed("", "ports.grant_ns."+o.Token, float64(len(calls)), func() error {
			for _, g := range calls {
				dst = arb.Grant(g.now, g.ready, dst[:0])
			}
			return nil
		})
	}
	return nil
}

// accessCost prices the cache hierarchy: the kernel's loads and stores
// access a fresh hierarchy one per cycle, advancing its clock and
// draining completions as the core does, retrying blocked accesses.
func (l *ledger) accessCost(p *pass, kernel string, insts uint64) error {
	recs, err := l.records(kernel, insts)
	if err != nil {
		return err
	}
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		return err
	}
	accesses := 0
	t0 := time.Now()
	now := uint64(0)
	for i := range recs {
		d := &recs[i]
		if d.Class != isa.ClassLoad && d.Class != isa.ClassStore {
			continue
		}
		for {
			h.Advance(now)
			h.Drain()
			out := h.Access(now, d.Addr, d.Class == isa.ClassStore, int64(i))
			now++
			accesses++
			if out != cache.Blocked {
				break
			}
		}
	}
	p.charge("", "cache.access_ns", time.Since(t0), float64(accesses))
	return nil
}
