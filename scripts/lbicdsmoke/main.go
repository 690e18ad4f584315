// Command lbicdsmoke is the CI smoke test for lbicd: against a running
// server it requests one simulation through the client package, runs the
// same configuration directly in-process, and fails unless the served
// report is byte-identical to the direct one. A second identical request
// must then be served from the result cache (no new cell execution).
//
// It then exercises the observability surface: a 2×2 traced sweep whose
// exported span tree must validate (single job root, every span reaching
// it, simulate spans carrying cycles and trace-cache attribution), and a
// /metrics scrape that must be valid Prometheus text exposition with
// nonzero request counters. With -trace-artifact the sweep's span JSONL is
// written there, for upload as a CI workflow artifact.
//
//	lbicd -addr 127.0.0.1:8329 &
//	lbicdsmoke -addr http://127.0.0.1:8329 -trace-artifact job-trace.jsonl
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/metrics"
)

func main() {
	var (
		addr          = flag.String("addr", "http://127.0.0.1:8329", "lbicd base URL")
		bench         = flag.String("bench", "compress", "benchmark to request")
		port          = flag.String("port", "lbic-4x2", "port organization name")
		insts         = flag.Uint64("insts", 100_000, "instruction budget")
		wait          = flag.Duration("wait", 15*time.Second, "how long to wait for the server to come up")
		traceArtifact = flag.String("trace-artifact", "", "write the traced sweep's span JSONL here (for CI artifact upload)")
	)
	flag.Parse()
	ctx := context.Background()
	c := client.New(*addr)

	deadline := time.Now().Add(*wait)
	for {
		if err := c.Healthz(ctx); err == nil {
			break
		} else if time.Now().After(deadline) {
			log.Fatalf("lbicdsmoke: server at %s not healthy within %v: %v", *addr, *wait, err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	req := client.SimulateRequest{Benchmark: *bench, Port: client.Port(*port), Insts: *insts}
	served, err := c.Simulate(ctx, req)
	if err != nil {
		log.Fatalf("lbicdsmoke: /v1/simulate: %v", err)
	}

	prog, err := lbic.BuildBenchmark(*bench)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port, err = lbic.ParsePortName(*port)
	if err != nil {
		log.Fatal(err)
	}
	cfg.MaxInsts = *insts
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		log.Fatalf("lbicdsmoke: direct Simulate: %v", err)
	}
	var direct bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&direct); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		os.Stderr.WriteString("--- served ---\n")
		os.Stderr.Write(served)
		os.Stderr.WriteString("--- direct ---\n")
		os.Stderr.Write(direct.Bytes())
		log.Fatalf("lbicdsmoke: served report (%d bytes) differs from direct report (%d bytes)",
			len(served), direct.Len())
	}

	before, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("lbicdsmoke: /metrics: %v", err)
	}
	again, err := c.Simulate(ctx, req)
	if err != nil {
		log.Fatalf("lbicdsmoke: repeat /v1/simulate: %v", err)
	}
	if !bytes.Equal(again, served) {
		log.Fatalf("lbicdsmoke: repeated request returned different bytes")
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("lbicdsmoke: /metrics: %v", err)
	}
	cellsBefore, _ := client.CounterValue(before, "server.cells_executed")
	cellsAfter, _ := client.CounterValue(after, "server.cells_executed")
	if cellsAfter != cellsBefore {
		log.Fatalf("lbicdsmoke: repeat request executed %d new cells (want cache hit)", cellsAfter-cellsBefore)
	}
	hits, _ := client.CounterValue(after, "resultcache.hits")
	fmt.Printf("lbicdsmoke: ok (%d report bytes byte-identical; repeat served from cache, %d result-cache hits)\n",
		len(served), hits)

	smokeTrace(ctx, c, *insts, *traceArtifact)
	smokeMetrics(*addr)
}

// smokeTrace runs a 2×2 sweep (ports chosen to not collide with the earlier
// simulate call's cell) and validates the exported span tree.
func smokeTrace(ctx context.Context, c *client.Client, insts uint64, artifact string) {
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("bank-4"), client.Port("true-2")},
		Insts:      insts,
	})
	if err != nil {
		log.Fatalf("lbicdsmoke: /v1/sweep: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		log.Fatalf("lbicdsmoke: waiting for %s: %v", st.ID, err)
	}
	h, spans, err := c.JobTrace(ctx, st.ID)
	if err != nil {
		log.Fatalf("lbicdsmoke: fetching trace for %s: %v", st.ID, err)
	}
	if _, err := lbic.ValidateTraceTree(spans, true); err != nil {
		log.Fatalf("lbicdsmoke: span tree for %s invalid: %v", st.ID, err)
	}
	simSpans := 0
	for _, sp := range spans {
		if sp.Open {
			log.Fatalf("lbicdsmoke: span %q still open in finished job %s", sp.Name, st.ID)
		}
		if !strings.HasPrefix(sp.Name, "simulate ") {
			continue
		}
		simSpans++
		if sp.Attrs["cycles"] == nil {
			log.Fatalf("lbicdsmoke: simulate span %q has no cycles attr: %v", sp.Name, sp.Attrs)
		}
		if tc, _ := sp.Attrs["trace_cache"].(string); tc != "hit" && tc != "miss" {
			log.Fatalf("lbicdsmoke: simulate span %q trace_cache = %q, want hit or miss", sp.Name, sp.Attrs["trace_cache"])
		}
	}
	if simSpans != st.Total {
		log.Fatalf("lbicdsmoke: %d simulate spans for %d cells", simSpans, st.Total)
	}
	if artifact != "" {
		f, err := os.Create(artifact)
		if err != nil {
			log.Fatalf("lbicdsmoke: %v", err)
		}
		if err := lbic.WriteTraceJSONL(f, h.Name, h.EpochUnixNS, spans); err != nil {
			log.Fatalf("lbicdsmoke: writing %s: %v", artifact, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("lbicdsmoke: %v", err)
		}
	}
	fmt.Printf("lbicdsmoke: trace ok (job %s: %d spans, root %q, %d simulate spans attributed)\n",
		st.ID, len(spans), spans[0].Name, simSpans)
}

// smokeMetrics scrapes /metrics and fails unless it is valid Prometheus text
// exposition with a nonzero request counter.
func smokeMetrics(addr string) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		log.Fatalf("lbicdsmoke: scraping /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		log.Fatalf("lbicdsmoke: /metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("lbicdsmoke: reading /metrics: %v", err)
	}
	samples, err := metrics.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		log.Fatalf("lbicdsmoke: /metrics is not valid exposition format: %v", err)
	}
	requests := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "server_requests_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			log.Fatalf("lbicdsmoke: parsing %q: %v", line, err)
		}
		requests += v
	}
	if requests == 0 {
		log.Fatalf("lbicdsmoke: server_requests_total is zero after a full smoke run")
	}
	fmt.Printf("lbicdsmoke: metrics ok (%d samples valid, %.0f requests counted)\n", samples, requests)
}
