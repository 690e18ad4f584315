package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func intCell(key string, v int) Cell[int] {
	return Cell[int]{Key: key, Run: func(context.Context) (int, error) { return v, nil }}
}

func TestRunSerialAndParallelAgree(t *testing.T) {
	cells := make([]Cell[int], 20)
	for i := range cells {
		cells[i] = intCell(fmt.Sprintf("c%02d", i), i*i)
	}
	for _, jobs := range []int{0, 1, 4, 32} {
		out, err := Run(context.Background(), cells, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if out.Done != len(cells) || out.Failed != 0 || out.Skipped != 0 {
			t.Fatalf("jobs=%d: tallies %+v", jobs, out)
		}
		for i, r := range out.Results {
			if r.Key != cells[i].Key || r.Value != i*i || r.Err != nil {
				t.Fatalf("jobs=%d cell %d: %+v", jobs, i, r)
			}
		}
	}
}

func TestRunRejectsDuplicateKeys(t *testing.T) {
	cells := []Cell[int]{intCell("a", 1), intCell("a", 2)}
	if _, err := Run(context.Background(), cells, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := Run(context.Background(), []Cell[int]{{Key: ""}}, Options{}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestPanicIsolatedToOneCell(t *testing.T) {
	cells := []Cell[int]{
		intCell("ok1", 1),
		{Key: "boom", Run: func(context.Context) (int, error) { panic("cell exploded") }},
		intCell("ok2", 2),
	}
	out, err := Run(context.Background(), cells, Options{Jobs: 2, KeepGoing: true})
	if err != nil {
		t.Fatalf("KeepGoing run errored: %v", err)
	}
	if out.Done != 2 || out.Failed != 1 {
		t.Fatalf("tallies %+v", out)
	}
	var pe *PanicError
	if !errors.As(out.Results[1].Err, &pe) {
		t.Fatalf("boom err = %v, want *PanicError", out.Results[1].Err)
	}
	if fmt.Sprint(pe.Value) != "cell exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}
	if out.Results[0].Err != nil || out.Results[2].Err != nil {
		t.Error("healthy cells affected by neighbour panic")
	}
}

func TestFailFastSkipsRemainder(t *testing.T) {
	ran := int32(0)
	cells := []Cell[int]{
		{Key: "bad", Run: func(context.Context) (int, error) { return 0, errors.New("broken") }},
		{Key: "later", Run: func(context.Context) (int, error) {
			atomic.AddInt32(&ran, 1)
			return 1, nil
		}},
	}
	out, err := Run(context.Background(), cells, Options{}) // serial, fail-fast
	if err == nil {
		t.Fatal("fail-fast run returned nil error despite a failed cell")
	}
	if got := atomic.LoadInt32(&ran); got != 0 {
		t.Errorf("later cell ran %d times after failure", got)
	}
	if !errors.Is(out.Results[1].Err, ErrSkipped) || out.Skipped != 1 {
		t.Errorf("later cell = %+v, want ErrSkipped", out.Results[1])
	}
}

func TestTimeoutFiresAndIsReported(t *testing.T) {
	old := abandonGrace
	abandonGrace = 10 * time.Millisecond
	defer func() { abandonGrace = old }()

	cells := []Cell[int]{
		{Key: "hang", Run: func(ctx context.Context) (int, error) {
			<-ctx.Done() // cooperative: unwinds on cancellation
			return 0, ctx.Err()
		}},
		{Key: "wedge", Run: func(context.Context) (int, error) {
			select {} // ignores cancellation entirely
		}},
		intCell("ok", 7),
	}
	start := time.Now()
	out, err := Run(context.Background(), cells,
		Options{Jobs: 3, Timeout: 30 * time.Millisecond, KeepGoing: true})
	if err != nil {
		t.Fatalf("KeepGoing run errored: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the sweep")
	}
	for _, i := range []int{0, 1} {
		if !errors.Is(out.Results[i].Err, context.DeadlineExceeded) {
			t.Errorf("%s err = %v, want deadline exceeded", out.Results[i].Key, out.Results[i].Err)
		}
	}
	if out.Results[2].Err != nil || out.Results[2].Value != 7 {
		t.Errorf("healthy cell affected: %+v", out.Results[2])
	}
}

// TestSettledOncePerCell: Settled sees each cell's Result exactly once —
// when it finishes or as skipped — and a failed cell runs exactly once.
func TestSettledOncePerCell(t *testing.T) {
	var order []string
	settled := func(r Result[int]) { order = append(order, fmt.Sprintf("settled %s %d %v", r.Key, r.Value, r.Err)) }
	runs := 0
	cells := []Cell[int]{
		{Key: "ok", Settled: settled, Run: func(context.Context) (int, error) { return 1, nil }},
		{Key: "bad", Settled: settled, Run: func(context.Context) (int, error) { runs++; return 3, errors.New("broken") }},
		{Key: "late", Settled: settled, Run: func(context.Context) (int, error) { return 4, nil }},
	}
	Run(context.Background(), cells, Options{})
	want := []string{
		"settled ok 1 <nil>",
		"settled bad 3 broken",
		"settled late 0 runner: cell skipped",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("settlement order:\n got %q\nwant %q", order, want)
	}
	if runs != 1 {
		t.Errorf("failed cell ran %d times, want 1", runs)
	}
}

// TestCellTimeoutOverridesOptions: a cell's own Timeout bounds it in place
// of Options.Timeout; other cells keep the sweep-wide one.
func TestCellTimeoutOverridesOptions(t *testing.T) {
	wait := func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(200 * time.Millisecond):
			return 1, nil
		}
	}
	cells := []Cell[int]{
		{Key: "short", Timeout: 10 * time.Millisecond, Run: wait},
		{Key: "long", Run: wait},
		{Key: "longer", Timeout: time.Hour, Run: wait},
	}
	out, _ := Run(context.Background(), cells, Options{Timeout: 20 * time.Millisecond, KeepGoing: true, Jobs: 3})
	for i, wantOK := range []bool{false, false, true} {
		if r := out.Results[i]; (r.Err == nil) != wantOK {
			t.Errorf("%s: err = %v, want success %v", r.Key, r.Err, wantOK)
		}
	}
}

func TestTimeoutIsNotRetried(t *testing.T) {
	old := abandonGrace
	abandonGrace = 5 * time.Millisecond
	defer func() { abandonGrace = old }()
	tries := int32(0)
	cells := []Cell[int]{{Key: "slow", Run: func(ctx context.Context) (int, error) {
		atomic.AddInt32(&tries, 1)
		<-ctx.Done()
		return 0, ctx.Err()
	}}}
	out, _ := Run(context.Background(), cells, Options{Timeout: 10 * time.Millisecond, KeepGoing: true})
	if got := atomic.LoadInt32(&tries); got != 1 {
		t.Errorf("timed-out cell ran %d times, want 1", got)
	}
	if !errors.Is(out.Results[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", out.Results[0].Err)
	}
}

func TestStopChannelGracefulSkip(t *testing.T) {
	stop := make(chan struct{})
	started := make(chan struct{})
	release := make(chan struct{})
	cells := []Cell[int]{
		{Key: "inflight", Run: func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		}},
		intCell("never", 2),
	}
	go func() {
		<-started
		close(stop) // request graceful shutdown while cell 0 is in flight
		close(release)
	}()
	out, err := Run(context.Background(), cells, Options{Jobs: 1, Stop: stop})
	if err != nil {
		t.Fatalf("graceful stop returned error: %v", err)
	}
	if out.Results[0].Err != nil || out.Results[0].Value != 1 {
		t.Errorf("in-flight cell = %+v, want it to finish", out.Results[0])
	}
	if !errors.Is(out.Results[1].Err, ErrSkipped) {
		t.Errorf("queued cell = %+v, want ErrSkipped", out.Results[1])
	}
}

func TestContextCancelReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []Cell[int]{intCell("a", 1)}
	out, err := Run(ctx, cells, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(canceled ctx) = %v, want context.Canceled", err)
	}
	if !errors.Is(out.Results[0].Err, ErrSkipped) {
		t.Errorf("cell = %+v, want ErrSkipped", out.Results[0])
	}
}

// TestExclNeverOverlaps: cells sharing an Excl never run at the same time,
// and one waiting on its Excl holds no worker: the next cell in input order
// launches in its place.
func TestExclNeverOverlaps(t *testing.T) {
	// x1 finishes only once y has started. y comes after x2 in input order,
	// so it starts only if x2, waiting on x1's Excl, lets it pass.
	yStarted := make(chan struct{})
	var xRunning atomic.Int32
	xCell := func(key string, waitY bool) Cell[int] {
		return Cell[int]{Key: key, Excl: "x", Run: func(context.Context) (int, error) {
			if xRunning.Add(1) > 1 {
				t.Errorf("%s runs beside another x cell", key)
			}
			defer xRunning.Add(-1)
			if waitY {
				select {
				case <-yStarted:
				case <-time.After(5 * time.Second):
					return 0, errors.New("y never started while x1 ran")
				}
			}
			return 1, nil
		}}
	}
	y := Cell[int]{Key: "y", Excl: "y", Run: func(context.Context) (int, error) { close(yStarted); return 2, nil }}
	out, err := Run(context.Background(), []Cell[int]{xCell("x1", true), xCell("x2", false), y}, Options{Jobs: 2})
	if err != nil || out.Done != 3 {
		t.Fatalf("Run = %+v, %v; want three successes", out, err)
	}

	// Many cells in a few Excl groups on more workers than groups: each
	// group still runs one cell at a time, and every cell runs.
	var running [3]atomic.Int32
	var cells []Cell[int]
	for i := range 24 {
		g := i % 3
		cells = append(cells, Cell[int]{Key: fmt.Sprintf("c%d", i), Excl: fmt.Sprintf("g%d", g),
			Run: func(context.Context) (int, error) {
				if running[g].Add(1) > 1 {
					t.Errorf("two cells of group %d run at once", g)
				}
				time.Sleep(time.Millisecond)
				running[g].Add(-1)
				return g, nil
			}})
	}
	if out, err := Run(context.Background(), cells, Options{Jobs: 8}); err != nil || out.Done != len(cells) {
		t.Fatalf("Run = %d of %d done, %v", out.Done, len(cells), err)
	}
}
