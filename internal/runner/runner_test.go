package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

func TestRetryOnTransientFailure(t *testing.T) {
	tries := 0
	cells := []Cell[int]{{Key: "flaky", Run: func(context.Context) (int, error) {
		tries++
		if tries == 1 {
			return 0, errors.New("transient")
		}
		return 42, nil
	}}}
	out, err := Run(context.Background(), cells, Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Value != 42 || out.Results[0].Attempts != 2 {
		t.Fatalf("flaky cell = %+v, want value 42 after 2 attempts", out.Results[0])
	}
}

// TestSettledOncePerCell: Settled sees each cell's final Result exactly
// once — after the last retry, from the journal, or as skipped — before
// OnCell.
func TestSettledOncePerCell(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Record("cached", 7)
	var order []string
	settled := func(r Result[int]) { order = append(order, fmt.Sprintf("settled %s %d %v", r.Key, r.Value, r.Err)) }
	tries := 0
	cells := []Cell[int]{
		{Key: "cached", Settled: settled, Run: func(context.Context) (int, error) { return 0, errors.New("ran") }},
		{Key: "flaky", Settled: settled, Run: func(context.Context) (int, error) {
			if tries++; tries == 1 {
				return 1, errors.New("transient")
			}
			return 42, nil
		}},
		{Key: "bad", Settled: settled, Run: func(context.Context) (int, error) { return 3, errors.New("broken") }},
		{Key: "late", Settled: settled, Run: func(context.Context) (int, error) { return 4, nil }},
	}
	Run(context.Background(), cells, Options{Retries: 1, Backoff: Backoff{Base: -1}, Journal: j,
		OnCell: func(key string, err error) { order = append(order, "oncell "+key) }})
	want := []string{
		"settled cached 7 <nil>", "oncell cached",
		"settled flaky 42 <nil>", "oncell flaky",
		"settled bad 3 broken", "oncell bad",
		"settled late 0 runner: cell skipped", "oncell late",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("settlement order:\n got %q\nwant %q", order, want)
	}
}

// TestCellTimeoutOverridesOptions: a cell's own Timeout bounds its attempts
// in place of Options.Timeout; other cells keep the sweep-wide one.
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
	out, _ := Run(context.Background(), cells,
		Options{Timeout: 10 * time.Millisecond, Retries: 3, KeepGoing: true})
	if got := atomic.LoadInt32(&tries); got != 1 {
		t.Errorf("timed-out cell attempted %d times, want 1", got)
	}
	if out.Results[0].Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", out.Results[0].Attempts)
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

func TestJournalRoundTripResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	// First pass: two successes, one failure.
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell[int]{
		intCell("a", 10),
		{Key: "b", Run: func(context.Context) (int, error) { return 0, errors.New("first pass fails") }},
		intCell("c", 30),
	}
	out, err := Run(context.Background(), cells, Options{Journal: j, KeepGoing: true})
	if err != nil || out.Done != 2 || out.Failed != 1 {
		t.Fatalf("first pass: %v %+v", err, out)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second pass resumes: a and c must come from the journal, only b runs.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 2 {
		t.Fatalf("Resumed() = %d, want 2", j2.Resumed())
	}
	executed := map[string]bool{}
	cells2 := []Cell[int]{
		{Key: "a", Run: func(context.Context) (int, error) { executed["a"] = true; return -1, nil }},
		{Key: "b", Run: func(context.Context) (int, error) { executed["b"] = true; return 20, nil }},
		{Key: "c", Run: func(context.Context) (int, error) { executed["c"] = true; return -1, nil }},
	}
	out2, err := Run(context.Background(), cells2, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if executed["a"] || executed["c"] || !executed["b"] {
		t.Fatalf("executed = %v, want only b", executed)
	}
	want := map[string]int{"a": 10, "b": 20, "c": 30}
	for _, r := range out2.Results {
		if r.Value != want[r.Key] {
			t.Errorf("%s = %d, want %d", r.Key, r.Value, want[r.Key])
		}
	}
	if !out2.Results[0].Cached || out2.Results[1].Cached || !out2.Results[2].Cached {
		t.Errorf("cached flags = %v %v %v, want true false true",
			out2.Results[0].Cached, out2.Results[1].Cached, out2.Results[2].Cached)
	}
}

func TestJournalSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("good", 5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write from a killed process.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1 (corrupt line skipped)", j2.Resumed())
	}
	if _, ok := j2.Lookup("good"); !ok {
		t.Error("intact entry lost")
	}
	if _, ok := j2.Lookup("torn"); ok {
		t.Error("corrupt entry resurrected")
	}
}

// TestJournalMidWriteFailureLeavesResumableJournal: a write failure halfway
// through a sweep (the fd goes bad under the journal — disk full, killed
// process, revoked mount) must not poison the checkpoint: entries recorded
// before the failure stay resumable, later records are served from memory
// for the running sweep, and Close surfaces the sticky write error.
func TestJournalMidWriteFailureLeavesResumableJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("before", 1)
	// Kill the fd out from under the journal: every later write fails the
	// way it would if the process lost the file mid-sweep.
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	j.Record("after", 2)

	// The running sweep still benefits from the in-memory entry.
	if _, ok := j.Lookup("after"); !ok {
		t.Error("in-memory entry lost after write failure")
	}
	// fail() is what Record's marshal path uses; a direct failure must also
	// be sticky and must not displace the first error.
	j.fail(errors.New("second failure"))
	err = j.Close()
	if err == nil {
		t.Fatal("Close() = nil, want the sticky write error")
	}
	if got := err.Error(); !strings.Contains(got, `"after"`) {
		t.Errorf("Close() = %v, want the first (mid-write) failure", err)
	}

	// The journal on disk is still a valid checkpoint: resuming loads the
	// pre-failure entry and reruns only the lost cell.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", j2.Resumed())
	}
	if _, ok := j2.Lookup("before"); !ok {
		t.Error("pre-failure entry lost")
	}
	if _, ok := j2.Lookup("after"); ok {
		t.Error("failed write resurrected on resume")
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
