package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"

	"lbic"
	"lbic/client"
)

// simulateAllocBound is the most one accepted request may allocate to
// simulate one instruction: program build, trace decode, hierarchy, core
// and arbiter at the largest sizes a request can set (RUU, LSQ and store
// buffer at 4096, port dimensions at 1024, caches at 65536 lines). It is a
// few times what the largest of those measures, and far below what an
// uncapped size could reach.
const simulateAllocBound = 256 << 20

// FuzzSimulateRequest feeds arbitrary bytes through simulateSpec, which is
// everything /v1/simulate does before admission: decode, schema check,
// program or trace compilation, port resolution and configuration
// validation. Every input must end in an error with context or in a spec
// whose configuration validates, and none may panic. An accepted spec then
// simulates one instruction, which must stay within simulateAllocBound:
// the size caps hold at the boundary.
func FuzzSimulateRequest(f *testing.F) {
	// 8-byte L1 lines hold two four-byte words.
	narrowLine := lbic.DefaultMemParams()
	narrowLine.L1.LineSize = 8
	for _, req := range []client.SimulateRequest{
		{Benchmark: "compress", Port: client.Port("lbic-4x2"), Insts: 20_000},
		{Benchmark: "li", Port: client.Port("bank-4"), Insts: 20_000},
		{Benchmark: "compress", Port: client.Port("true-1"), Insts: 1000},
		{Pattern: "unit-stride", Port: client.Port("coded-4x1-lb2-spec"), Insts: 1000},
		{Port: client.Port("true-1"), Insts: 1000},
		{Benchmark: "compress", Pattern: "unit-stride", Port: client.Port("true-1"), Insts: 1000},
		{Benchmark: "doom", Port: client.Port("true-1"), Insts: 1000},
		{Benchmark: "compress", Port: client.Port("true-1")},
		{Benchmark: "compress", Port: client.Port("warp-9"), Insts: 1000},
		{Benchmark: "compress", Port: client.Port("bank-3"), Insts: 1000},
		{Schema: "lbic-sim-request/v99", Benchmark: "compress", Port: client.Port("true-1"), Insts: 1000},
		{Benchmark: "compress", Port: client.Port("bank-8388608"), Insts: 1000},
		{Benchmark: "swim", Port: client.Port("lbic-4x2-greedy"), Insts: 1000,
			CPU: &lbic.CPUConfig{FetchWidth: 4096, IssueWidth: 4096, CommitWidth: 4096, RUUSize: 4096,
				LSQSize: 4096, StoreBufferSize: 4096, MemScanDepth: 4096}},
		// LBIC line buffers wider than the L1 line's four-byte words: the
		// Table 1 line, and an override's 8-byte line.
		{Benchmark: "compress", Port: client.Port("lbic-4x9"), Insts: 1000},
		{Benchmark: "compress", Port: client.Port("lbic-4x4"), Insts: 1000, Mem: &narrowLine},
	} {
		if req.Schema == "" {
			req.Schema = client.RequestSchema
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	prog, err := lbic.BuildPattern("same-line-burst")
	if err != nil {
		f.Fatal(err)
	}
	rt, err := lbic.RecordBenchmarkTrace(prog, 64)
	if err != nil {
		f.Fatal(err)
	}
	var trace bytes.Buffer
	if err := lbic.WriteTraceStream(&trace, rt); err != nil {
		f.Fatal(err)
	}
	upload, err := json.Marshal(client.SimulateRequest{Schema: client.RequestSchema, Trace: trace.Bytes(), Port: client.Port("lbic-2x2")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upload)
	f.Add([]byte(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000,"surprise":1}`))
	f.Add([]byte(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":{"kind":"bank","banks":4},"insts":1000}`))
	f.Add([]byte(`{"schema":"lbic-sim-request/v1","pattern":"unit-stride","port":"true-1","insts":1000,"mem":{"l1":{"size":2097152}}}`))
	f.Add([]byte(`not json`))

	s := New(Options{TraceCacheBytes: -1, ResultCacheBytes: -1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := s.simulateSpec(httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejected with an empty error")
			}
			return
		}
		src, cfg, err := s.cellRun(&sp)
		if err != nil {
			t.Fatalf("accepted spec %s cannot build its run: %v", sp.key, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec %s has an invalid configuration: %v", sp.key, err)
		}
		cfg.MaxInsts, cfg.Trace = 1, nil
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = lbic.Simulate(context.Background(), src, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("accepted spec %s fails to simulate one instruction: %v", sp.key, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > simulateAllocBound {
			t.Fatalf("accepted spec %s allocated %d MiB to simulate one instruction, bound %d MiB",
				sp.key, n>>20, simulateAllocBound>>20)
		}
	})
}
