package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lbic"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// A Part is one table, figure or group of tables an invocation asks for.
// Given a sweep, it adds its cells to the sweep's plan and returns how it
// renders once the plan has run.
type Part func(sw *Sweep) func() []*stats.Table

// The parts of lbictables' output.
var (
	Table2Part   = tableOf(table2, Table2Table)
	Table3Part   = tableOf(table3, Table3Table)
	Figure3Part  = tableOf(figure3, Figure3Table)
	Table4Part   = tableOf(table4, Table4Table)
	CodedPart    = tablesOf(codedTable)
	WorkloadPart = tablesOf(workloadMatrix, workloadConflicts)
)

// AblationsPart is every ablation study at the given budget.
func AblationsPart(insts uint64) Part {
	studies := tablesOf(ablationStudies()...)
	return func(sw *Sweep) func() []*stats.Table { return studies(sw.withInsts(insts)) }
}

// tableOf is the Part of one table computed as data and rendered by render.
func tableOf[T any](table func(*Sweep) func() T, render func(T) *stats.Table) Part {
	return func(sw *Sweep) func() []*stats.Table {
		get := table(sw)
		return func() []*stats.Table { return []*stats.Table{render(get())} }
	}
}

// tablesOf is the Part of the given tables, in order.
func tablesOf(tables ...func(*Sweep) func() *stats.Table) Part {
	return func(sw *Sweep) func() []*stats.Table {
		gets := make([]func() *stats.Table, len(tables))
		for i, table := range tables {
			gets[i] = table(sw)
		}
		return func() []*stats.Table {
			out := make([]*stats.Table, len(gets))
			for i, get := range gets {
				out[i] = get()
			}
			return out
		}
	}
}

// Run runs the parts as one plan, in one runner pass, and returns their
// tables in part order. With KeepGoing, or after Stop, every part renders,
// its failed and skipped cells as ERR. Otherwise a failed cell or a canceled
// context ends the pass: Run returns the tables of the parts before the
// first one missing a cell, and an error naming the first failed cell in
// part order.
func Run(sw *Sweep, parts ...Part) ([]*stats.Table, error) {
	c := *sw
	p := &plan{sw: &c}
	c.plan = p
	renders := make([]func() []*stats.Table, len(parts))
	ends := make([]int, len(parts)) // part i's tables end at p.tables[ends[i]]
	for i, part := range parts {
		renders[i] = part(&c)
		ends[i] = len(p.tables)
	}
	err := p.run()
	var out []*stats.Table
	from := 0
	for i, render := range renders {
		if err != nil && !p.complete(p.tables[from:ends[i]]) {
			break
		}
		out = append(out, render()...)
		from = ends[i]
	}
	return out, err
}

// runOne runs one table as a plan of its own.
func runOne[T any](sw *Sweep, table func(*Sweep) func() T) (T, error) {
	var v T
	_, err := Run(sw, func(sw *Sweep) func() []*stats.Table {
		get := table(sw)
		return func() []*stats.Table { v = get(); return nil }
	})
	return v, err
}

// plan is the cells of every table one invocation asks for, run in one
// runner pass, so no table waits for the last batch of the table before it.
// A point (a simulation, named by its memoKey, or another cell, named by
// its key) runs once however many tables show it. Each table's simulation
// cells of one stream group run as the lanes of one batch, as they would on
// their own.
type plan struct {
	sw     *Sweep
	tables [][]cell // each table's cells, in output order
	// Once the plan has run: the value of every cell that succeeded, and
	// the error of every cell that ran and failed, by key.
	vals   map[string]any
	failed map[string]error
}

// add puts one table's cells in the plan.
func (p *plan) add(cells []cell) { p.tables = append(p.tables, cells) }

// complete reports whether every cell of the tables has a value.
func (p *plan) complete(tables [][]cell) bool {
	for _, t := range tables {
		for _, c := range t {
			if _, ok := p.vals[c.Key]; !ok {
				return false
			}
		}
	}
	return true
}

// member is one point of a unit: every cell of the plan that shows it, the
// first of which runs it.
type member []cell

// point names what a cell computes.
func (c cell) point() string {
	if c.sim != nil {
		return c.sim.memoKey
	}
	return c.Key
}

// units groups the plan's points into runner units in launch order: each
// table's new points of one stream group form one lane batch, and every
// other point runs alone. Cells that run alone go first: they are short, and
// Table 2's record the traces the batches replay. The batches follow widest
// first, so the pass ends on narrow ones rather than with one CPU idle
// behind a wide one.
func (p *plan) units() [][]member {
	shows := map[string]member{}
	for _, t := range p.tables {
		for _, c := range t {
			shows[c.point()] = append(shows[c.point()], c)
		}
	}
	var alone, batches [][]member
	placed := map[string]bool{}
	for _, t := range p.tables {
		groups := map[string]int{} // this table's stream groups: index in batches
		for _, c := range t {
			if placed[c.point()] {
				continue
			}
			placed[c.point()] = true
			m := shows[c.point()]
			if c.sim == nil {
				alone = append(alone, []member{m})
				continue
			}
			if i, ok := groups[c.sim.group]; ok {
				batches[i] = append(batches[i], m)
				continue
			}
			groups[c.sim.group] = len(batches)
			batches = append(batches, []member{m})
		}
	}
	sort.SliceStable(batches, func(i, j int) bool { return len(batches[i]) > len(batches[j]) })
	return append(alone, batches...)
}

// outcome is one member's result inside a runner unit's value.
type outcome struct {
	v any
	// res is the simulation behind a simulation member; nil for others.
	res *lbic.Result
	err error
}

// run executes the plan's units in one runner pass and settles every cell:
// its value or error, the failure log, OnCell. The error is nil unless the
// context was canceled or (without KeepGoing) a cell failed, which it names.
func (p *plan) run() error {
	sw := p.sw
	p.vals, p.failed = map[string]any{}, map[string]error{}
	ctx := sw.context()
	_, err := runner.Run(ctx, p.runnerCells(), runner.Options{Jobs: sw.Jobs, KeepGoing: sw.KeepGoing, Stop: sw.Stop})
	if err != nil && ctx.Err() == nil {
		// Name the first failed table cell, not the unit it rode in.
		for _, t := range p.tables {
			for _, c := range t {
				if ferr, ok := p.failed[c.Key]; ok {
					return fmt.Errorf("runner: cell %q: %w", c.Key, ferr)
				}
			}
		}
	}
	return err
}

// runnerCells returns the plan's units as runner cells, in launch order.
func (p *plan) runnerCells() []runner.Cell[[]outcome] {
	units := p.units()
	cells := make([]runner.Cell[[]outcome], len(units))
	keys := map[string]int{}
	for i, ms := range units {
		cells[i] = p.unit(ms)
		// Two tables may each batch one stream at one width (the ablations
		// do): number the repeats so every runner key stays unique.
		if keys[cells[i].Key]++; keys[cells[i].Key] > 1 {
			cells[i].Key += "#" + strconv.Itoa(keys[cells[i].Key])
		}
	}
	return cells
}

// settle records a unit's result for every cell of its members.
func (p *plan) settle(ms []member, r runner.Result[[]outcome]) {
	for j, m := range ms {
		o := outcome{err: r.Err}
		if r.Value != nil {
			o = r.Value[j]
		}
		for _, c := range m {
			switch {
			case o.err != nil:
				p.sw.log.add(CellError{Key: c.Key, Err: o.err})
				if !errors.Is(o.err, runner.ErrSkipped) {
					p.failed[c.Key] = o.err
				}
			case c.sim != nil:
				p.vals[c.Key] = c.sim.pick(o.res)
			default:
				p.vals[c.Key] = o.v
			}
			if p.sw.OnCell != nil {
				p.sw.OnCell(c.Key, o.err)
			}
		}
	}
}

// unit wraps members as one runner cell: a stream group's simulations as
// one lane batch (keyed by its cell's own key when it runs alone), or one
// other cell. A batch's timeout is the cell timeout times its width, since
// it does that many lanes of work.
func (p *plan) unit(ms []member) runner.Cell[[]outcome] {
	sw := p.sw
	first := ms[0][0]
	c := runner.Cell[[]outcome]{Key: first.Key, Excl: first.stream, Timeout: sw.Timeout * time.Duration(len(ms)),
		Settled: func(r runner.Result[[]outcome]) { p.settle(ms, r) }}
	if len(ms) > 1 {
		c.Key = fmt.Sprintf("lane/%s/k%d", first.sim.group, len(ms))
	}
	if first.sim != nil {
		c.Labels = []string{"lanes", strconv.Itoa(len(ms))}
		c.Run = func(ctx context.Context) ([]outcome, error) { return runBatch(ctx, sw, ms) }
		return c
	}
	c.Run = func(ctx context.Context) ([]outcome, error) {
		v, err := first.run(ctx)
		return []outcome{{v: v, err: err}}, err
	}
	return c
}

// runBatch runs one stream group's points as the lanes of one batch. A
// lane's failure is returned as the batch's error too, so the runner counts
// the batch as failed, and a fail-fast plan stops, exactly as for that cell
// alone; the batch's other lanes keep their own outcomes.
func runBatch(ctx context.Context, sw *Sweep, ms []member) ([]outcome, error) {
	src, err := ms[0][0].sim.source()
	if err != nil {
		return nil, err
	}
	cfgs := make([]lbic.Config, len(ms))
	for i, m := range ms {
		cfgs[i] = m[0].sim.config(sw.Trace)
	}
	results, errs, err := lbic.SimulateBatch(ctx, src, cfgs)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(ms))
	var first error
	for i := range ms {
		if errs[i] != nil {
			outs[i].err = errs[i]
			if first == nil {
				first = errs[i]
			}
			continue
		}
		outs[i].res = &results[i]
	}
	return outs, first
}
