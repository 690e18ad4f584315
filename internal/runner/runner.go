// Package runner executes sweeps of independent simulation cells — one cell
// per (program, port organization, budget) point — with bounded parallelism
// and per-cell fault isolation. It exists so a single panicking arbiter, hung
// pipeline, or impatient ^C costs one table cell, not a whole evaluation run:
// every failure is contained in its cell's Result. A cell runs once. Cells
// are deterministic simulations, so a failed cell would fail the same way
// again, and the runner does not retry it.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"lbic/internal/tracing"
)

// Cell is one independent unit of sweep work.
type Cell[T any] struct {
	// Key identifies the cell; it must be unique within a sweep. Use a
	// readable encoding of the full configuration, e.g.
	// "sim/compress/lbic-4x2/i1000000".
	Key string
	// Run computes the cell. It must honor ctx promptly: a cell that ignores
	// cancellation is abandoned (its goroutine leaks until it returns) once
	// the grace window after its deadline expires.
	Run func(ctx context.Context) (T, error)
	// Labels are extra pprof label key/value pairs attached to the cell's
	// execution, alongside the always-present "cell" key. A sweep sets
	// ("lanes", K) here so a CPU profile attributes stepping to batch width.
	Labels []string
	// Timeout, when positive, bounds this cell in place of Options.Timeout:
	// a cell standing for K results (a lane batch) does K results' work.
	Timeout time.Duration
	// Settled, when non-nil, receives the cell's Result exactly once: when
	// it finishes or is skipped. Calls are serialized with every other
	// cell's settlement. A cell standing for several results (a lane batch)
	// settles its members here.
	Settled func(Result[T])
	// Excl, when non-empty, names what the cell holds while it runs: two
	// cells with the same Excl never run at the same time. A cell whose
	// Excl a running cell holds waits, and the next cell in input order
	// launches in its place.
	Excl string
}

// Result is the outcome of one cell.
type Result[T any] struct {
	Key   string
	Value T
	// Err is nil on success, ErrSkipped if the sweep stopped before the cell
	// started, a *PanicError if the cell panicked, or the cell's own error.
	Err error
}

// Options configures a sweep.
type Options struct {
	// Jobs bounds concurrently running cells; 0 or 1 means serial.
	Jobs int
	// Timeout bounds each cell (0 = none).
	Timeout time.Duration
	// KeepGoing makes Run return a nil error even when cells failed, leaving
	// per-cell errors in the Outcome; without it the first failure stops the
	// sweep (in-flight cells finish, unstarted ones are marked ErrSkipped).
	KeepGoing bool
	// Stop, when non-nil, requests graceful shutdown when it becomes
	// readable: no new cells start, in-flight cells finish (or time out),
	// and the remainder are marked ErrSkipped. Unlike ctx cancellation it is
	// not an error: Run returns the partial Outcome with a nil error.
	Stop <-chan struct{}
}

// Outcome is the result of a sweep: one Result per input cell, in input
// order, plus tallies.
type Outcome[T any] struct {
	Results []Result[T]
	Done    int // succeeded
	Failed  int // ran and failed
	Skipped int // never started (stop requested or fail-fast)
}

// ErrSkipped marks cells that never ran because the sweep stopped first.
var ErrSkipped = errors.New("runner: cell skipped")

// PanicError is a panic recovered from a cell, with the stack at the point
// of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error. The stack is deliberately not included — render it
// from the Stack field when wanted.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// abandonGrace is how long a timed-out cell gets to notice cancellation
// before its goroutine is abandoned. Package variable for tests.
var abandonGrace = 100 * time.Millisecond

// Run executes the cells and returns one Result each, in input order. Cells
// launch in input order, except that one whose Excl a running cell holds
// waits and lets the next launch. The returned error is nil unless the
// context was canceled, a cell key is duplicated or empty, or (without
// Options.KeepGoing) a cell failed — in which case it wraps the first
// failure in input order. The Outcome is valid in every case, including on
// error.
func Run[T any](ctx context.Context, cells []Cell[T], opts Options) (Outcome[T], error) {
	out := Outcome[T]{Results: make([]Result[T], len(cells))}
	seen := make(map[string]struct{}, len(cells))
	for i, c := range cells {
		if c.Key == "" {
			return out, fmt.Errorf("runner: cell %d has an empty key", i)
		}
		if _, dup := seen[c.Key]; dup {
			return out, fmt.Errorf("runner: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}

	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards settle(), held and fail-fast bookkeeping
		sem      = make(chan struct{}, jobs)
		halt     = make(chan struct{}) // closed to stop launching new cells
		haltOnce sync.Once
		allDone  = make(chan struct{})
		held     = map[string]bool{} // the Excl of every running cell
		// finished wakes a launcher that waits on an Excl; one send per
		// launched cell, so a send never blocks.
		finished = make(chan struct{}, len(cells))
	)
	stop := func() { haltOnce.Do(func() { close(halt) }) }
	if opts.Stop != nil {
		go func() {
			select {
			case <-opts.Stop:
				stop()
			case <-allDone:
			}
		}()
	}

	settle := func(i int, r Result[T]) {
		mu.Lock()
		defer mu.Unlock()
		out.Results[i] = r
		if cells[i].Settled != nil {
			cells[i].Settled(r)
		}
		switch {
		case r.Err == nil:
			out.Done++
		case errors.Is(r.Err, ErrSkipped):
			out.Skipped++
		default:
			out.Failed++
			if !opts.KeepGoing {
				stop()
			}
		}
	}

	// stopRequested gives halt and Stop priority over a free worker slot: a
	// bare select picks among ready cases at random, which would let a cell
	// launch after shutdown was already requested.
	stopRequested := func() bool {
		if ctx.Err() != nil {
			return true
		}
		select {
		case <-halt:
			return true
		default:
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				stop()
				return true
			default:
			}
		}
		return false
	}

	// pending holds the cells not yet launched, in input order; next takes
	// the first whose Excl no running cell holds.
	pending := make([]int, len(cells))
	for i := range pending {
		pending[i] = i
	}
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for j, i := range pending {
			if e := cells[i].Excl; e == "" || !held[e] {
				if e != "" {
					held[e] = true
				}
				pending = slices.Delete(pending, j, j+1)
				return i, true
			}
		}
		return 0, false
	}

	for len(pending) > 0 {
		skip := stopRequested()
		if !skip {
			select {
			case <-ctx.Done():
				skip = true
			case <-halt:
				skip = true
			case sem <- struct{}{}:
				// A stop may have arrived while we waited for the slot.
				if skip = stopRequested(); skip {
					<-sem
				}
			}
		}
		if skip {
			for _, i := range pending {
				settle(i, Result[T]{Key: cells[i].Key, Err: ErrSkipped})
			}
			break
		}
		i, ok := next()
		if !ok {
			// Every pending cell waits on a running one: hand the slot back
			// until a cell finishes.
			<-sem
			select {
			case <-finished:
			case <-halt:
			case <-ctx.Done():
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			settle(i, runCell(ctx, cells[i], opts))
			if e := cells[i].Excl; e != "" {
				mu.Lock()
				delete(held, e)
				mu.Unlock()
			}
			finished <- struct{}{}
		}(i)
	}
	wg.Wait()
	close(allDone)

	if err := ctx.Err(); err != nil {
		return out, err
	}
	if !opts.KeepGoing {
		for _, r := range out.Results {
			if r.Err != nil && !errors.Is(r.Err, ErrSkipped) {
				return out, fmt.Errorf("runner: cell %q: %w", r.Key, r.Err)
			}
		}
	}
	return out, nil
}

// runCell executes one cell under its deadline, converting a panic to a
// *PanicError. If the cell ignores cancellation past the grace window its
// goroutine is abandoned: it leaks until the cell function returns, but the
// sweep moves on.
//
// When ctx carries a trace, the cell contributes a "cell <key>" span. Only
// this goroutine annotates or ends the span — the cell's own goroutine (which
// may outlive an abandoned cell) opens child spans instead — so a span is
// closed exactly once even across panics, deadlines, and abandonment.
func runCell[T any](ctx context.Context, c Cell[T], opts Options) Result[T] {
	ctx, span := tracing.Start(ctx, "cell "+c.Key)
	defer span.End()
	timeout := opts.Timeout
	if c.Timeout > 0 {
		timeout = c.Timeout
	}
	cctx, cancel := ctx, func() {}
	if timeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	ch := make(chan Result[T], 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- Result[T]{Err: &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		// The pprof labels make per-cell cost visible in CPU profiles:
		// every sample inside the cell carries the cell key plus any caller
		// labels (e.g. lane count), so `go tool pprof -tagfocus` separates
		// one cell — or one batch width — from a sweep.
		labels := make([]string, 0, 2+len(c.Labels))
		labels = append(labels, "cell", c.Key)
		labels = append(labels, c.Labels...)
		var r Result[T]
		pprof.Do(cctx, pprof.Labels(labels...), func(ctx context.Context) {
			r.Value, r.Err = c.Run(ctx)
		})
		ch <- r
	}()

	var r Result[T]
	abandoned := false
	select {
	case r = <-ch:
	case <-cctx.Done():
		// Deadline or cancellation: give a cooperative cell a moment to
		// unwind (and accept a success that races the deadline), then
		// abandon it.
		select {
		case r = <-ch:
		case <-time.After(abandonGrace):
			span.Event("abandoned")
			abandoned = true
			r.Err = fmt.Errorf("runner: cell %q abandoned (did not stop within %v of cancellation): %w",
				c.Key, abandonGrace, cctx.Err())
		}
	}
	// deadline_slack_ns notes how much of the per-cell deadline was left
	// when the cell returned — the margin before the next tuning of Timeout
	// starts killing healthy cells.
	if timeout > 0 && !abandoned {
		dl, _ := cctx.Deadline()
		span.SetAttr("deadline_slack_ns", time.Until(dl).Nanoseconds())
	}
	if r.Err != nil {
		span.SetAttr("error", r.Err.Error())
	}
	r.Key = c.Key
	return r
}
