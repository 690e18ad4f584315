package runner

import (
	"context"
	"strings"
	"testing"
	"time"

	"lbic/internal/tracing"
)

// TestCellSpansCloseOnFaults checks that every cell opened under a trace ends
// exactly once even when cells panic, time out, or are abandoned for
// ignoring cancellation. Run under -race this also exercises the span
// ownership rule: attempt goroutines never annotate the cell span directly.
func TestCellSpansCloseOnFaults(t *testing.T) {
	oldGrace := abandonGrace
	abandonGrace = 20 * time.Millisecond
	defer func() { abandonGrace = oldGrace }()

	tr := tracing.New()
	ctx := tracing.NewContext(context.Background(), tr)
	ctx, root := tr.Start(ctx, "sweep")

	hangDone := make(chan struct{})
	cells := []Cell[int]{
		{Key: "ok", Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Key: "boom", Run: func(ctx context.Context) (int, error) { panic("kaboom") }},
		{Key: "hang", Run: func(ctx context.Context) (int, error) {
			// Ignore cancellation long past the grace window so the attempt
			// is abandoned, then exit so the test doesn't leak forever.
			defer close(hangDone)
			<-ctx.Done()
			time.Sleep(5 * abandonGrace)
			return 0, ctx.Err()
		}},
	}
	out, err := Run(ctx, cells, Options{
		Jobs:      3,
		Timeout:   30 * time.Millisecond,
		KeepGoing: true,
	})
	root.End()
	if err != nil {
		t.Fatalf("Run with KeepGoing returned %v", err)
	}
	if out.Done != 1 || out.Failed != 2 {
		t.Fatalf("outcome = %d done, %d failed; want 1 and 2", out.Done, out.Failed)
	}
	<-hangDone // abandoned goroutine must still exit before we snapshot

	spans := tr.Snapshot()
	if _, err := tracing.ValidateTree(spans, true); err != nil {
		t.Fatalf("trace tree invalid: %v", err)
	}
	closed := map[string]int{}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "cell ") {
			continue
		}
		if sp.Open {
			t.Errorf("span %q left open", sp.Name)
			continue
		}
		closed[sp.Name]++
	}
	for _, key := range []string{"ok", "boom", "hang"} {
		if n := closed["cell "+key]; n != 1 {
			t.Errorf("cell %q closed %d spans, want exactly 1", key, n)
		}
	}

	// Fault detail lands on the right spans: the cells that returned record
	// their deadline slack, the panic cell its error, and the abandoned cell
	// the abandonment event and no slack.
	byName := map[string]tracing.SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, key := range []string{"ok", "boom"} {
		if sp := byName["cell "+key]; sp.Attrs["deadline_slack_ns"] == nil {
			t.Errorf("cell %q span = %+v, want deadline_slack_ns", key, sp.Attrs)
		}
	}
	if sp := byName["cell boom"]; sp.Attrs["error"] == nil {
		t.Errorf("panic cell span = %+v, want error attr", sp.Attrs)
	}
	if sp := byName["cell hang"]; sp.Attrs["deadline_slack_ns"] != nil || sp.Attrs["error"] == nil {
		t.Errorf("abandoned cell span = %+v, want error and no deadline_slack_ns", sp.Attrs)
	}
	var abandoned bool
	for _, ev := range byName["cell hang"].Events {
		if ev.Name == "abandoned" {
			abandoned = true
		}
	}
	if !abandoned {
		t.Errorf("hung cell span missing abandoned event: %+v", byName["cell hang"])
	}
}
