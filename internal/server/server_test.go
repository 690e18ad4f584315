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
	cases := []struct {
		name string
		req  client.SimulateRequest
	}{
		{"no program", client.SimulateRequest{Port: client.Port("true-1"), Insts: 1000}},
		{"both programs", client.SimulateRequest{Benchmark: "compress", Pattern: "unit-stride", Port: client.Port("true-1"), Insts: 1000}},
		{"unknown benchmark", client.SimulateRequest{Benchmark: "doom", Port: client.Port("true-1"), Insts: 1000}},
		{"zero insts", client.SimulateRequest{Benchmark: "compress", Port: client.Port("true-1")}},
		{"bad port", client.SimulateRequest{Benchmark: "compress", Port: client.Port("warp-9"), Insts: 1000}},
		{"invalid port", client.SimulateRequest{Benchmark: "compress", Port: client.Port("bank-3"), Insts: 1000}},
		{"bad schema", client.SimulateRequest{Schema: "lbic-sim-request/v99", Benchmark: "compress", Port: client.Port("true-1"), Insts: 1000}},
	}
	for _, tc := range cases {
		_, err := c.Simulate(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want HTTP 400", tc.name, err)
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
	var cells, dones int
	err = c.Stream(ctx, st.ID, func(ev client.StreamEvent) error {
		switch ev.Type {
		case "cell":
			if ev.Cell == nil || ev.Cell.Error != "" {
				return fmt.Errorf("bad cell event %+v", ev)
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
}

func TestJobStreamSSE(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress"},
		Ports:      []client.PortSpec{client.Port("true-1")},
		Insts:      testInsts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("event: cell\nid: 0\ndata: ")) || !bytes.Contains(body, []byte("event: done\nid: 1\ndata: ")) {
		t.Errorf("SSE body missing events (with id fields):\n%s", body)
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
	for _, want := range []string{"server_requests_total", "tracecache_records_total", "resultcache_hits_total", "server_request_duration_seconds_bucket"} {
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
