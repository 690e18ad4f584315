package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/cluster"
	"lbic/internal/runner"
	"lbic/internal/server"
)

const testInsts = 20_000

// noDelay turns every retry wait off so dispatcher tests never sleep.
var noDelay = runner.Backoff{Base: -1}

// newWorker boots a real lbicd serving plane behind httptest.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Options{Role: "worker"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// directReport computes the authoritative bytes for a benchmark cell the
// same way a standalone lbicd would serve them.
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

func simReq(bench, port string) client.SimulateRequest {
	return client.SimulateRequest{
		Schema:    client.RequestSchema,
		Benchmark: bench,
		Port:      client.Port(port),
		Insts:     testInsts,
	}
}

func TestDispatcherServesByteIdenticalReports(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	pool := cluster.NewPool([]string{w1.URL, w2.URL}, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, nil, cluster.Options{Backoff: noDelay})
	got, err := d.Execute(context.Background(), simReq("compress", "lbic-4x2"), "sim/compress/lbic-4x2/i20000")
	if err != nil {
		t.Fatal(err)
	}
	want := directReport(t, "compress", "lbic-4x2", testInsts)
	if !bytes.Equal(got, want) {
		t.Errorf("cluster-served report differs from direct simulation:\n got %s\nwant %s", got, want)
	}
	st := d.Status()
	if st.RemoteOK != 1 || st.Dispatched != 1 {
		t.Errorf("Status = %+v, want 1 dispatched / 1 remoteOK", st)
	}
}

func TestDispatcherRetriesOntoAnotherWorker(t *testing.T) {
	// A worker whose API plane always severs the connection, beside a real
	// one. Whichever is the key's home, every cell must still complete.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(dead.Close)
	live := newWorker(t)

	pool := cluster.NewPool([]string{dead.URL, live.URL}, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, nil, cluster.Options{Attempts: 3, Backoff: noDelay})

	// Pick a key homed on the dead worker so the first attempt must fail.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("sim/compress/lbic-4x2/i20000/k%d", i)
		if seq := pool.Sequence(k); len(seq) > 0 && seq[0].Addr() == dead.URL {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on the dead worker in 256 tries")
	}
	got, err := d.Execute(context.Background(), simReq("compress", "lbic-4x2"), key)
	if err != nil {
		t.Fatalf("Execute failed despite a healthy fallback worker: %v", err)
	}
	if want := directReport(t, "compress", "lbic-4x2", testInsts); !bytes.Equal(got, want) {
		t.Error("retried report not byte-identical to direct simulation")
	}
	if st := d.Status(); st.Retries == 0 {
		t.Errorf("Status.Retries = 0, want at least one retry; status %+v", st)
	}
}

func TestDispatcherUnavailableWithNoWorkers(t *testing.T) {
	pool := cluster.NewPool(nil, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, nil, cluster.Options{Backoff: noDelay})
	_, err := d.Execute(context.Background(), simReq("compress", "true-1"), "k")
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	if st := d.Status(); st.Unavailable != 1 {
		t.Errorf("Status.Unavailable = %d, want 1", st.Unavailable)
	}
}

func TestDispatcherBadRequestShortCircuits(t *testing.T) {
	w := newWorker(t)
	pool := cluster.NewPool([]string{w.URL}, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, nil, cluster.Options{Attempts: 5, Backoff: noDelay})
	req := simReq("no-such-benchmark", "true-1")
	_, err := d.Execute(context.Background(), req, "k")
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("err = %v, want wrapped ErrUnavailable (caller degrades to authoritative local error)", err)
	}
	// A 400 means every worker would reject identically: exactly one attempt.
	if st := d.Status(); st.Retries != 0 {
		t.Errorf("Status.Retries = %d, want 0 (400 must not retry)", st.Retries)
	}
}

func TestDispatcherStoreHitSkipsWorkers(t *testing.T) {
	store, err := cluster.OpenStore(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	canned := []byte(`{"canned":true}`)
	store.Put("k", canned)
	// No workers at all: only the store can serve this.
	d := cluster.NewDispatcher(cluster.NewPool(nil, cluster.PoolOptions{}), store, cluster.Options{Backoff: noDelay})
	got, err := d.Execute(context.Background(), simReq("compress", "true-1"), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, canned) {
		t.Errorf("store hit returned %s, want %s", got, canned)
	}
}

func TestDispatcherPopulatesStore(t *testing.T) {
	w := newWorker(t)
	store, err := cluster.OpenStore(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewPool([]string{w.URL}, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, store, cluster.Options{Backoff: noDelay})
	const key = "sim/compress/true-1/i20000"
	first, err := d.Execute(context.Background(), simReq("compress", "true-1"), key)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the worker; the store must now serve the same bytes alone.
	w.Close()
	again, err := d.Execute(context.Background(), simReq("compress", "true-1"), key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Error("store replay differs from the originally served report")
	}
}

func TestDispatcherHedgeWinsOnStraggler(t *testing.T) {
	live := newWorker(t)
	// A straggler that stalls API calls until the dispatcher cancels it (the
	// body read lets the server notice the client-side cancel; the timer
	// bounds teardown if it never arrives).
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(slow.Close)

	pool := cluster.NewPool([]string{slow.URL, live.URL}, cluster.PoolOptions{})
	d := cluster.NewDispatcher(pool, nil, cluster.Options{
		Backoff:    noDelay,
		HedgeAfter: 20 * time.Millisecond,
	})
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("hedge/k%d", i)
		if seq := pool.Sequence(k); len(seq) > 0 && seq[0].Addr() == slow.URL {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on the slow worker in 256 tries")
	}
	got, err := d.Execute(context.Background(), simReq("compress", "true-1"), key)
	if err != nil {
		t.Fatal(err)
	}
	if want := directReport(t, "compress", "true-1", testInsts); !bytes.Equal(got, want) {
		t.Error("hedged report not byte-identical to direct simulation")
	}
	st := d.Status()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("Status hedges=%d hedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

func TestPoolEvictionAndReadmission(t *testing.T) {
	srv := server.New(server.Options{Role: "worker"})
	t.Cleanup(srv.Close)
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	pool := cluster.NewPool([]string{ts.URL}, cluster.PoolOptions{EvictAfter: 3})
	ctx := context.Background()

	pool.ProbeAll(ctx)
	if pool.HealthyCount() != 1 {
		t.Fatal("worker not healthy after a clean probe")
	}

	failing.Store(true)
	pool.ProbeAll(ctx)
	pool.ProbeAll(ctx)
	if pool.HealthyCount() != 1 {
		t.Fatal("worker evicted before EvictAfter consecutive failures")
	}
	pool.ProbeAll(ctx)
	if pool.HealthyCount() != 0 {
		t.Fatal("worker not evicted after EvictAfter consecutive failures")
	}
	if seq := pool.Sequence("k"); len(seq) != 0 {
		t.Errorf("Sequence offers an evicted worker: %v", seq)
	}

	failing.Store(false)
	pool.ProbeAll(ctx)
	if pool.HealthyCount() != 1 {
		t.Fatal("worker not readmitted on the first successful heartbeat")
	}
	if seq := pool.Sequence("k"); len(seq) != 1 {
		t.Errorf("Sequence does not offer the readmitted worker: %v", seq)
	}
}

func TestPoolHeartbeatCarriesCapacity(t *testing.T) {
	w := newWorker(t)
	pool := cluster.NewPool([]string{w.URL}, cluster.PoolOptions{})
	pool.ProbeAll(context.Background())
	st := pool.Status()
	if len(st) != 1 {
		t.Fatalf("Status has %d workers, want 1", len(st))
	}
	if st[0].MaxParallel <= 0 {
		t.Errorf("heartbeat did not carry MaxParallel: %+v", st[0])
	}
	if st[0].LastSeenAgeSeconds < 0 {
		t.Errorf("worker never seen despite successful probe: %+v", st[0])
	}
}

func TestChaosZeroOptionsUnwrapped(t *testing.T) {
	h := http.NewServeMux()
	if got := cluster.Chaos(h, cluster.ChaosOptions{}); got != http.Handler(h) {
		t.Error("zero-option Chaos did not return the handler unwrapped")
	}
}

func TestChaosDropSparesHealthEndpoints(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	ts := httptest.NewServer(cluster.Chaos(inner, cluster.ChaosOptions{DropRate: 1, Seed: 1}))
	t.Cleanup(ts.Close)

	// Membership probes must keep telling the truth while the API misbehaves.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz dropped under chaos: %v", err)
	}
	resp.Body.Close()

	if resp, err := http.Get(ts.URL + "/v1/simulate"); err == nil {
		resp.Body.Close()
		t.Fatal("DropRate=1 let an API request through")
	}
}

func TestChaosSlowInjectsLatency(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	const delay = 60 * time.Millisecond
	ts := httptest.NewServer(cluster.Chaos(inner, cluster.ChaosOptions{Slow: delay}))
	t.Cleanup(ts.Close)
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("request took %v, want at least the injected %v", elapsed, delay)
	}
}
