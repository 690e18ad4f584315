package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/metrics"
	"lbic/internal/server"
)

// testInsts keeps served cells quick; identity claims hold at any budget.
const testInsts = 20_000

func newTestServer(t *testing.T, opts server.Options) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, client.New(ts.URL)
}

// directReport runs the same configuration in-process, the way lbicsim
// would, and returns the exact bytes Report.WriteJSON emits.
func directReport(t *testing.T, bench, portName string, insts uint64) []byte {
	t.Helper()
	prog, err := lbic.BuildBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	port, err := lbic.ParsePortName(portName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = insts
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func counter(t *testing.T, c *client.Client, name string) uint64 {
	t.Helper()
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := client.CounterValue(snap, name)
	return v
}

func TestServedSimulateByteIdentical(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	req := client.SimulateRequest{Benchmark: "compress", Port: client.Port("lbic-4x2"), Insts: testInsts}
	served, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	direct := directReport(t, "compress", "lbic-4x2", testInsts)
	if !bytes.Equal(served, direct) {
		t.Fatalf("served report (%d bytes) differs from direct report (%d bytes)", len(served), len(direct))
	}
}

// TestSimulateTraceUpload exercises the /v1/simulate uploaded-trace path:
// the served report must be byte-identical to replaying the same stream
// in-process, and a second upload of the same bytes must hit the result
// cache.
func TestSimulateTraceUpload(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()

	rt, err := lbic.RecordGeneratorTrace(lbic.GenParams{Kind: "zipf"}, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := lbic.WriteTraceStream(&enc, rt); err != nil {
		t.Fatal(err)
	}

	req := client.SimulateRequest{Trace: enc.Bytes(), Port: client.Port("lbic-4x2")}
	served, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	port, err := lbic.ParsePortName("lbic-4x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = 0 // whole trace
	res, err := lbic.Simulate(ctx, lbic.TraceSource(rt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		t.Fatalf("served trace report (%d bytes) differs from direct replay (%d bytes)", len(served), direct.Len())
	}
	if got := res.Benchmark; got != rt.Name() {
		t.Fatalf("replay Benchmark = %q, want the stream name %q", got, rt.Name())
	}

	// Same upload again: the result cache must serve it.
	before := counter(t, c, "resultcache.hits")
	if _, err := c.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if after := counter(t, c, "resultcache.hits"); after != before+1 {
		t.Errorf("result cache hits %d -> %d, want +1", before, after)
	}

	// Hostile uploads are rejected up front, never simulated.
	bad := bytes.Clone(enc.Bytes())
	bad[len(bad)-1] ^= 0x01 // break the CRC footer
	for name, trace := range map[string][]byte{
		"corrupt": bad,
		"garbage": []byte("not a trace"),
	} {
		_, err := c.Simulate(ctx, client.SimulateRequest{Trace: trace, Port: client.Port("true-1")})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload: err = %v, want HTTP 400", name, err)
		}
	}
	_, err = c.Simulate(ctx, client.SimulateRequest{Trace: enc.Bytes(), Benchmark: "compress", Port: client.Port("true-1"), Insts: 1000})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("trace+benchmark: err = %v, want HTTP 400", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	narrowLine := lbic.DefaultMemParams()
	narrowLine.L1.LineSize = 8 // two four-byte words
	cases := []struct {
		name string
		req  client.SimulateRequest
		// want, when set, must appear in the error message.
		want string
	}{
		{"no program", client.SimulateRequest{Port: client.Port("true-1"), Insts: 1000}, ""},
		{"both programs", client.SimulateRequest{Benchmark: "compress", Pattern: "unit-stride", Port: client.Port("true-1"), Insts: 1000}, ""},
		{"unknown benchmark", client.SimulateRequest{Benchmark: "doom", Port: client.Port("true-1"), Insts: 1000}, ""},
		{"zero insts", client.SimulateRequest{Benchmark: "compress", Port: client.Port("true-1")}, ""},
		{"bad port", client.SimulateRequest{Benchmark: "compress", Port: client.Port("warp-9"), Insts: 1000}, ""},
		{"invalid port", client.SimulateRequest{Benchmark: "compress", Port: client.Port("bank-3"), Insts: 1000}, ""},
		{"bad schema", client.SimulateRequest{Schema: "lbic-sim-request/v99", Benchmark: "compress", Port: client.Port("true-1"), Insts: 1000}, ""},
		{"oversized port", client.SimulateRequest{Benchmark: "compress", Port: client.Port("bank-8388608"), Insts: 1000},
			"bank count 8388608 exceeds the limit of 1024"},
		{"line buffer wider than the line", client.SimulateRequest{Benchmark: "compress", Port: client.Port("lbic-4x9"), Insts: 1000},
			"combining width 9 exceeds the 8 four-byte words of a 32-byte line"},
		{"line buffer wider than an override's line", client.SimulateRequest{Benchmark: "compress", Port: client.Port("lbic-4x4"),
			Insts: 1000, Mem: &narrowLine},
			"combining width 4 exceeds the 2 four-byte words of a 8-byte line"},
		// Fields outside the kind's schema: the run would ignore them, yet
		// they would reach the report and the result-cache key.
		{"field outside the kind's schema", client.SimulateRequest{Benchmark: "compress",
			Port: client.PortOf(lbic.PortConfig{Kind: lbic.BankedStoreQueue, Banks: 4, Selector: lbic.WordInterleave}), Insts: 1000},
			"a banksq port takes no selector"},
		{"depth suffix on a kind without queues", client.SimulateRequest{Benchmark: "compress", Port: client.Port("true-4-sq8"), Insts: 1000},
			"a true port takes no store_queue_depth"},
	}
	for _, tc := range cases {
		_, err := c.Simulate(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want HTTP 400", tc.name, err)
		} else if !strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("%s: error %q, want it to name %q", tc.name, apiErr.Message, tc.want)
		}
	}
	// Unknown fields are rejected too (strict schema).
	resp, err := http.Post(c.BaseURL+"/v1/simulate", "application/json",
		bytes.NewReader([]byte(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000,"surprise":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSweepValidation: a sweep whose port cannot be built at the L1 line
// size is refused at admission with a 400 naming the width, instead of
// being accepted and failing in every cell.
func TestSweepValidation(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.Sweep(context.Background(), client.SweepRequest{Ports: []client.PortSpec{client.Port("lbic-4x9")}, Insts: 1000})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want HTTP 400", err)
	}
	if want := "combining width 9 exceeds"; !strings.Contains(apiErr.Message, want) {
		t.Errorf("error %q, want it to name %q", apiErr.Message, want)
	}
}

func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxParallel: 4})
	ctx := context.Background()
	req := client.SimulateRequest{Benchmark: "li", Port: client.Port("bank-4"), Insts: testInsts}

	const n = 8
	var wg sync.WaitGroup
	responses := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = c.Simulate(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("request %d returned different bytes", i)
		}
	}
	if got := counter(t, c, "server.cells_executed"); got != 1 {
		t.Errorf("cells_executed = %d, want 1 (singleflight + result cache)", got)
	}
	if got := counter(t, c, "tracecache.records"); got != 1 {
		t.Errorf("tracecache.records = %d, want 1 recording", got)
	}
}

// TestSweepByteIdenticalAndCached is the acceptance criterion: a /v1/sweep
// over the ten-benchmark table returns cells byte-identical to direct
// simulation, and an identical second request is served entirely from the
// result cache with zero new trace recordings.
func TestSweepByteIdenticalAndCached(t *testing.T) {
	if testing.Short() {
		t.Skip("ten-benchmark sweep in -short mode")
	}
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	req := client.SweepRequest{Ports: []client.PortSpec{client.Port("lbic-4x2")}, Insts: testInsts}

	st, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(lbic.BenchmarkNames()) {
		t.Fatalf("job total = %d, want %d", st.Total, len(lbic.BenchmarkNames()))
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.JobDone || final.Done != st.Total || final.Failed != 0 {
		t.Fatalf("job finished %+v", final)
	}
	byBench := make(map[string]client.CellResult)
	for _, cell := range final.Results {
		byBench[cell.Benchmark] = cell
	}
	for _, bench := range lbic.BenchmarkNames() {
		cell, ok := byBench[bench]
		if !ok {
			t.Fatalf("no cell for %s", bench)
		}
		// Job responses embed reports as json.RawMessage, which re-marshaling
		// compacts; compare against the compacted direct bytes.
		var direct bytes.Buffer
		if err := json.Compact(&direct, directReport(t, bench, "lbic-4x2", testInsts)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cell.Report, direct.Bytes()) {
			t.Errorf("%s: served cell differs from direct report", bench)
		}
	}

	records := counter(t, c, "tracecache.records")
	executed := counter(t, c, "server.cells_executed")
	if records != uint64(st.Total) || executed != uint64(st.Total) {
		t.Fatalf("first sweep: records=%d executed=%d, want %d each", records, executed, st.Total)
	}

	st2, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != client.JobDone || final2.Failed != 0 {
		t.Fatalf("second job finished %+v", final2)
	}
	for _, cell := range final2.Results {
		if !cell.Cached {
			t.Errorf("%s: second sweep cell not served from the result cache", cell.Benchmark)
		}
		if !bytes.Equal(cell.Report, byBench[cell.Benchmark].Report) {
			t.Errorf("%s: second sweep cell bytes differ", cell.Benchmark)
		}
	}
	if got := counter(t, c, "tracecache.records"); got != records {
		t.Errorf("second sweep recorded %d new traces, want 0", got-records)
	}
	if got := counter(t, c, "server.cells_executed"); got != executed {
		t.Errorf("second sweep executed %d new cells, want 0", got-executed)
	}
	if hits := counter(t, c, "resultcache.hits"); hits < uint64(st.Total) {
		t.Errorf("resultcache.hits = %d, want >= %d", hits, st.Total)
	}
}

func TestGracefulDrainFinishesInFlightJobs(t *testing.T) {
	srv, c := newTestServer(t, server.Options{MaxParallel: 2})
	ctx := context.Background()
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("true-1"), client.Port("bank-4")},
		Insts:      testInsts,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv.BeginDrain()
	// New work is rejected with 503 while the job keeps running.
	_, err = c.Simulate(ctx, client.SimulateRequest{Benchmark: "compress", Port: client.Port("true-1"), Insts: testInsts})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: err = %v, want HTTP 503", err)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("503 without Retry-After")
	}
	if err := c.Healthz(ctx); err == nil {
		t.Error("healthz should fail while draining")
	}

	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job ran to completion during the drain.
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.JobDone || final.Done != final.Total || final.Failed != 0 {
		t.Fatalf("after drain, job = %+v, want all %d cells done", final, final.Total)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	_, c := newTestServer(t, server.Options{QueueLimit: 1})
	_, err := c.Sweep(context.Background(), client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("true-1")},
		Insts:      testInsts,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want HTTP 429", err)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("429 without Retry-After")
	}
}

func TestUnknownJob(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.Job(context.Background(), "job-999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}

// TestJobStreamDeliversEveryCell follows a sweep through client.Stream,
// then reads the finished job's stream again with a raw request that asks
// for Server-Sent Events: the route serves JSONL whatever the Accept header
// says, and replays the same events.
func TestJobStreamDeliversEveryCell(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("true-2")},
		Insts:      testInsts,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []client.StreamEvent
	var cells, dones int
	err = c.Stream(ctx, st.ID, func(ev client.StreamEvent) error {
		events = append(events, ev)
		switch ev.Type {
		case "cell":
			if ev.Cell == nil || ev.Cell.Error != "" {
				return fmt.Errorf("bad cell event %+v", ev)
			}
			if ev.Cell.ElapsedNS <= 0 {
				return fmt.Errorf("cell event without elapsed time: %+v", ev.Cell)
			}
			cells++
		case "done":
			if ev.Status == nil || ev.Status.State != client.JobDone {
				return fmt.Errorf("bad done event %+v", ev)
			}
			dones++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells != st.Total || dones != 1 {
		t.Errorf("stream delivered %d cells / %d done events, want %d / 1", cells, dones, st.Total)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("Accept: text/event-stream got Content-Type %q, want application/jsonl", ct)
	}
	var replayed []client.StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev client.StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding the replayed stream: %v", err)
		}
		replayed = append(replayed, ev)
	}
	if !reflect.DeepEqual(replayed, events) {
		t.Errorf("replayed stream differs from the followed one:\n got %+v\nwant %+v", replayed, events)
	}
}

func TestMetricsTextExport(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	// The default is the Prometheus exposition format: valid per the
	// package's own validator and carrying the core counter families.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := metrics.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Errorf("exposition invalid: %v\n%s", err, body)
	} else if n == 0 {
		t.Error("exposition has no samples")
	}
	for _, want := range []string{"server_requests_total", "tracecache_records_total", "resultcache_hits_total", "server_request_duration_seconds_bucket", "go_heap_inuse_bytes_total", "process_max_rss_bytes_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// ?format=text keeps the human-aligned table view with dotted names.
	resp2, err := http.Get(c.BaseURL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server.requests", "tracecache.records", "resultcache.hits"} {
		if !bytes.Contains(body2, []byte(want)) {
			t.Errorf("text metrics missing %q:\n%s", want, body2)
		}
	}
}

// TestMetricsReportProcessMemory: /metrics carries the daemon's own heap
// in use, heap goal and peak RSS, and heap in use does not exceed peak RSS.
func TestMetricsReportProcessMemory(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	figures := map[string]uint64{}
	for _, name := range []string{"go.heap_inuse_bytes", "go.heap_goal_bytes", "process.max_rss_bytes"} {
		v, ok := client.CounterValue(snap, name)
		if !ok || v == 0 {
			t.Fatalf("/metrics has %s = %d (present %v)", name, v, ok)
		}
		figures[name] = v
	}
	if figures["go.heap_inuse_bytes"] > figures["process.max_rss_bytes"] {
		t.Errorf("heap in use %d exceeds peak RSS %d", figures["go.heap_inuse_bytes"], figures["process.max_rss_bytes"])
	}
}

func TestRetryAfterGrowsWithQueueDepth(t *testing.T) {
	// The backlog estimate before any cell settles assumes 1s/cell, so with
	// MaxParallel 1 a rejected request should be told to come back in about
	// queue-depth seconds. Big per-cell budgets keep the sweep's cells
	// unfinished while the rejections are provoked.
	retryAfter := func(depth int) int {
		t.Helper()
		// TraceCacheBytes -1 keeps the heavy cells on the emulator-driven
		// path, which honors cancellation: Close must not leave a 50M-inst
		// trace recording burning CPU under the rest of the suite.
		_, c := newTestServer(t, server.Options{MaxParallel: 1, QueueLimit: depth, TraceCacheBytes: -1})
		ctx := context.Background()
		// One sweep of depth distinct heavy cells fills the queue exactly
		// (identical cells would collapse into one unit of work).
		if _, err := c.Sweep(ctx, client.SweepRequest{
			Benchmarks: lbic.BenchmarkNames()[:depth],
			Ports:      []client.PortSpec{client.Port("true-1")},
			Insts:      50_000_000,
		}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.BaseURL+"/v1/simulate", "application/json",
			bytes.NewReader([]byte(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
		}
		return ra
	}
	shallow := retryAfter(2)
	deep := retryAfter(8)
	if deep <= shallow {
		t.Errorf("Retry-After did not grow with queue depth: depth 2 -> %ds, depth 8 -> %ds", shallow, deep)
	}
	if shallow < 1 || deep > 120 {
		t.Errorf("Retry-After outside [1, 120]: %d, %d", shallow, deep)
	}
}

func TestRetryAfterDrainingFloor(t *testing.T) {
	srv, c := newTestServer(t, server.Options{})
	srv.BeginDrain()
	resp, err := http.Post(c.BaseURL+"/v1/simulate", "application/json",
		bytes.NewReader([]byte(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatal(err)
	}
	if ra < 5 {
		t.Errorf("draining Retry-After = %d, want the 5s rolling-restart floor", ra)
	}
}

func TestDrainUnderLoadCompletesInFlightSweep(t *testing.T) {
	srv, c := newTestServer(t, server.Options{MaxParallel: 2})
	ctx := context.Background()
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("true-1"), client.Port("bank-4")},
		Insts:      testInsts,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Race the drain against the running job: admission must close
	// immediately, while the accepted job keeps its right to finish.
	srv.BeginDrain()
	if _, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress"}, Ports: []client.PortSpec{client.Port("true-1")}, Insts: testInsts,
	}); err == nil {
		t.Error("sweep accepted while draining")
	}

	dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain did not settle the in-flight sweep: %v", err)
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Done != final.Total || final.Failed != 0 {
		t.Errorf("after drain job = %+v, want all %d cells done", final, final.Total)
	}
}
