package server_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"lbic"
	"lbic/client"
	"lbic/internal/server"
)

// The benchmarks below measure the cost of serving a simulation through
// lbicd relative to calling Simulate in-process: a cold request pays the
// full simulation, a warm repeat is one result-cache lookup plus HTTP
// round trip, and the direct call is the baseline both are compared to.
const benchInsts = 100_000

func benchClient(b *testing.B, opts server.Options) (*server.Server, *client.Client) {
	b.Helper()
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

// BenchmarkServedSimulateCold measures a /v1/simulate request whose result
// cache entry has been dropped each iteration, so every request executes a
// cell (the trace cache stays warm, mirroring a long-lived server).
func BenchmarkServedSimulateCold(b *testing.B) {
	srv, c := benchClient(b, server.Options{ResultCacheBytes: -1})
	_ = srv
	req := client.SimulateRequest{Benchmark: "compress", Port: client.Port("lbic-4x2"), Insts: benchInsts}
	ctx := context.Background()
	if _, err := c.Simulate(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Simulate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedSimulateWarm measures a repeated /v1/simulate request
// served entirely from the result cache: no cell executes, the cost is
// admission, one cache lookup, and the HTTP round trip.
func BenchmarkServedSimulateWarm(b *testing.B) {
	_, c := benchClient(b, server.Options{})
	req := client.SimulateRequest{Benchmark: "compress", Port: client.Port("lbic-4x2"), Insts: benchInsts}
	ctx := context.Background()
	if _, err := c.Simulate(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Simulate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectSimulate is the in-process baseline for the served
// benchmarks: the same configuration run through lbic.Simulate with a warm
// trace cache, report serialization included.
func BenchmarkDirectSimulate(b *testing.B) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		b.Fatal(err)
	}
	port, err := lbic.ParsePortName("lbic-4x2")
	if err != nil {
		b.Fatal(err)
	}
	tc := lbic.NewTraceCache(0)
	run := func() {
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = benchInsts
		cfg.Trace = tc
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.TraceCache = nil
		var buf bytes.Buffer
		if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the trace cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
