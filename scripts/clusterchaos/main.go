// Command clusterchaos drills the distributed lbicd plane: it boots a real
// coordinator plus worker processes, applies faults, and checks the cluster's
// robustness claims end to end.
//
// Smoke mode (-smoke) is the CI gate:
//
//	go build -o /tmp/lbicd ./cmd/lbicd
//	go run ./scripts/clusterchaos -smoke -lbicd /tmp/lbicd
//
// It runs a sweep across a coordinator with three workers, SIGKILLs one
// worker as soon as the first cell lands, and fails unless the job still
// completes with every report byte-identical to the same cells simulated
// in-process. It then points a coordinator at dead ports and requires the
// same sweep to complete by graceful degradation to local execution.
//
// Drill mode (the default) is the load generator: workers run with drop and
// latency chaos (plus one that SIGKILLs itself mid-run and is restarted, so
// eviction and readmission both happen under load) while mixed simulate
// traffic hammers the coordinator. Request latencies and the cluster's
// dispatch counters land in a JSON benchmark document (-out BENCH_PR8.json).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"lbic"
	"lbic/client"
)

func main() {
	var (
		lbicd   = flag.String("lbicd", "/tmp/lbicd", "path to the built lbicd binary")
		smoke   = flag.Bool("smoke", false, "run the CI smoke drill instead of the load generator")
		workers = flag.Int("workers", 3, "cluster size")
		reqs    = flag.Int("requests", 60, "drill mode: total simulate requests")
		conc    = flag.Int("concurrency", 4, "drill mode: concurrent load generators")
		insts   = flag.Uint64("insts", 100_000, "per-cell instruction budget")
		out     = flag.String("out", "BENCH_PR8.json", "drill mode: benchmark JSON output path")
	)
	flag.Parse()
	if _, err := os.Stat(*lbicd); err != nil {
		log.Fatalf("clusterchaos: lbicd binary: %v (build it: go build -o /tmp/lbicd ./cmd/lbicd)", err)
	}
	if *smoke {
		runSmoke(*lbicd, *workers, *insts)
		return
	}
	runDrill(*lbicd, *workers, *reqs, *conc, *insts, *out)
}

// proc is one managed lbicd subprocess.
type proc struct {
	cmd  *exec.Cmd
	addr string // base URL
	port string
}

// freePort reserves an ephemeral port and releases it for the subprocess.
func freePort() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("clusterchaos: %v", err)
	}
	defer ln.Close()
	_, port, _ := net.SplitHostPort(ln.Addr().String())
	return port
}

// start launches lbicd with args and waits for /healthz.
func start(bin string, args ...string) *proc {
	port := freePort()
	full := append([]string{"-addr", "127.0.0.1:" + port}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("clusterchaos: starting lbicd: %v", err)
	}
	p := &proc{cmd: cmd, addr: "http://127.0.0.1:" + port, port: port}
	c := client.New(p.addr)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := c.Healthz(context.Background()); err == nil {
			return p
		} else if time.Now().After(deadline) {
			log.Fatalf("clusterchaos: %s not healthy in time: %v", p.addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// restart relaunches a dead worker on its original port (readmission needs
// the address to stay stable).
func restart(bin string, dead *proc, args ...string) *proc {
	full := append([]string{"-addr", "127.0.0.1:" + dead.port}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("clusterchaos: restarting worker: %v", err)
	}
	return &proc{cmd: cmd, addr: dead.addr, port: dead.port}
}

func (p *proc) sigkill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// directReport computes the authoritative report bytes for one cell.
func directReport(bench, portName string, insts uint64) ([]byte, error) {
	prog, err := lbic.BuildBenchmark(bench)
	if err != nil {
		return nil, err
	}
	cfg := lbic.DefaultConfig()
	if cfg.Port, err = lbic.ParsePortName(portName); err != nil {
		return nil, err
	}
	cfg.MaxInsts = insts
	res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runSmoke(bin string, nWorkers int, insts uint64) {
	ctx := context.Background()

	var ws []*proc
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		w := start(bin, "-worker", "-log-level", "error")
		ws = append(ws, w)
		addrs = append(addrs, w.addr)
	}
	coord := start(bin, "-coordinator", "-workers", strings.Join(addrs, ","),
		"-heartbeat", "250ms", "-evict-after", "2", "-hedge-after", "2s", "-log-level", "error")
	defer func() {
		coord.stop()
		for _, w := range ws {
			w.stop()
		}
	}()

	c := client.New(coord.addr)
	benches := []string{"compress", "li", "gcc", "perl"}
	ports := []client.PortSpec{client.Port("bank-4"), client.Port("lbic-4x2")}
	st, err := c.Sweep(ctx, client.SweepRequest{Benchmarks: benches, Ports: ports, Insts: insts})
	if err != nil {
		log.Fatalf("clusterchaos: sweep: %v", err)
	}
	fmt.Printf("clusterchaos: smoke job %s (%d cells) across %d workers\n", st.ID, st.Total, nWorkers)

	// Collect the stream; SIGKILL a worker the moment the first cell lands,
	// so the kill is mid-job and its in-flight cells must re-shard.
	killed := false
	seen := 0
	err = c.StreamSSE(ctx, st.ID, func(ev client.StreamEvent) error {
		if ev.Type != "cell" {
			return nil
		}
		if ev.Cell.Error != "" {
			return fmt.Errorf("cell %s failed: %s", ev.Cell.Key, ev.Cell.Error)
		}
		seen++
		if !killed {
			killed = true
			fmt.Printf("clusterchaos: SIGKILL worker %s mid-job\n", ws[0].addr)
			ws[0].sigkill()
		}
		return nil
	})
	if err != nil {
		log.Fatalf("clusterchaos: streaming %s: %v", st.ID, err)
	}
	if seen != st.Total {
		log.Fatalf("clusterchaos: job delivered %d of %d cells", seen, st.Total)
	}

	// Every cell must match the single-process bytes exactly. The raw
	// /v1/simulate body is the coordinator's cached copy of exactly what the
	// surviving cluster produced, so this compares the served bytes — not a
	// re-marshaled stream payload — against ground truth.
	verified := 0
	for _, b := range benches {
		for _, p := range []string{"bank-4", "lbic-4x2"} {
			served, err := c.Simulate(ctx, client.SimulateRequest{
				Benchmark: b, Port: client.Port(p), Insts: insts,
			})
			if err != nil {
				log.Fatalf("clusterchaos: refetch %s/%s: %v", b, p, err)
			}
			want, err := directReport(b, p, insts)
			if err != nil {
				log.Fatalf("clusterchaos: direct %s/%s: %v", b, p, err)
			}
			if !bytes.Equal(served, want) {
				log.Fatalf("clusterchaos: cell %s/%s served under a SIGKILLed worker differs from single-process bytes", b, p)
			}
			verified++
		}
	}
	cst, err := c.Cluster(ctx)
	if err != nil {
		log.Fatalf("clusterchaos: /v1/cluster: %v", err)
	}
	fmt.Printf("clusterchaos: smoke ok — %d/%d cells byte-identical with a worker SIGKILLed mid-job "+
		"(dispatched %d, retries %d, hedges %d, local fallbacks visible at /metrics)\n",
		verified, st.Total, cst.Dispatched, cst.Retries, cst.Hedges)

	smokeDegraded(bin, insts)
}

// smokeDegraded proves the zero-workers story: a coordinator whose entire
// worker list is unreachable must complete the sweep in-process, still
// byte-identical.
func smokeDegraded(bin string, insts uint64) {
	ctx := context.Background()
	deadAddr := "http://127.0.0.1:" + freePort()
	coord := start(bin, "-coordinator", "-workers", deadAddr,
		"-heartbeat", "100ms", "-evict-after", "1", "-remote-attempts", "1", "-log-level", "error")
	defer coord.stop()

	c := client.New(coord.addr)
	served, err := c.Simulate(ctx, client.SimulateRequest{
		Benchmark: "compress", Port: client.Port("lbic-4x2"), Insts: insts,
	})
	if err != nil {
		log.Fatalf("clusterchaos: degraded simulate: %v", err)
	}
	want, err := directReport("compress", "lbic-4x2", insts)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		log.Fatalf("clusterchaos: degraded report differs from single-process bytes")
	}
	cst, err := c.Cluster(ctx)
	if err != nil {
		log.Fatalf("clusterchaos: degraded /v1/cluster: %v", err)
	}
	if cst.Unavailable == 0 {
		log.Fatalf("clusterchaos: degraded coordinator reported no unavailable dispatches: %+v", cst)
	}
	fmt.Printf("clusterchaos: degradation ok — zero reachable workers, served in-process byte-identical "+
		"(%d dispatches degraded)\n", cst.Unavailable)
}

// benchDoc is the drill's JSON output (BENCH_PR8.json).
type benchDoc struct {
	Schema    string               `json:"schema"`
	Workers   int                  `json:"workers"`
	Requests  int                  `json:"requests"`
	Failed    int                  `json:"failed"`
	Chaos     map[string]any       `json:"chaos"`
	ElapsedS  float64              `json:"elapsed_s"`
	Rps       float64              `json:"requests_per_second"`
	LatencyMS map[string]float64   `json:"latency_ms"`
	Cluster   client.ClusterStatus `json:"cluster"`
}

func runDrill(bin string, nWorkers, reqs, conc int, insts uint64, out string) {
	ctx := context.Background()
	chaos := map[string]any{"drop_rate": 0.15, "slow_ms": 10, "kill_after": reqs / 6}

	var ws []*proc
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		args := []string{"-worker", "-log-level", "error",
			"-chaos-drop-rate", "0.15", "-chaos-slow-ms", "10", "-chaos-seed", fmt.Sprint(i + 1)}
		if i == 0 {
			// One worker crashes itself partway through and is restarted
			// below, so the run exercises eviction and readmission.
			args = append(args, "-chaos-kill-after", fmt.Sprint(reqs/6))
		}
		w := start(bin, args...)
		ws = append(ws, w)
		addrs = append(addrs, w.addr)
	}
	coord := start(bin, "-coordinator", "-workers", strings.Join(addrs, ","),
		"-heartbeat", "250ms", "-evict-after", "2", "-hedge-after", "1s", "-log-level", "error")
	defer func() {
		coord.stop()
		for _, w := range ws {
			w.stop()
		}
	}()

	// Resurrect the self-killing worker once it dies: readmission under load.
	go func() {
		ws[0].cmd.Wait()
		fmt.Printf("clusterchaos: worker %s died (chaos kill), restarting\n", ws[0].addr)
		ws[0] = restart(bin, ws[0], "-worker", "-log-level", "error",
			"-chaos-drop-rate", "0.15", "-chaos-slow-ms", "10", "-chaos-seed", "99")
	}()

	benches := []string{"compress", "li", "gcc", "perl", "mgrid"}
	ports := []string{"bank-4", "lbic-4x2", "true-2"}
	c := client.New(coord.addr)

	type res struct {
		d  time.Duration
		ok bool
	}
	results := make([]res, reqs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	startAt := time.Now()
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { wg.Done(); <-sem }()
			req := client.SimulateRequest{
				Benchmark: benches[i%len(benches)],
				Port:      client.Port(ports[(i/len(benches))%len(ports)]),
				// Distinct budgets defeat the caches: every request is real work.
				Insts: insts + uint64(i),
			}
			t0 := time.Now()
			_, err := c.Simulate(ctx, req)
			results[i] = res{time.Since(t0), err == nil}
			if err != nil {
				fmt.Fprintf(os.Stderr, "clusterchaos: request %d: %v\n", i, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(startAt)

	var lat []float64
	failed := 0
	for _, r := range results {
		if !r.ok {
			failed++
			continue
		}
		lat = append(lat, float64(r.d.Microseconds())/1000)
	}
	if len(lat) == 0 {
		log.Fatal("clusterchaos: every drill request failed")
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }

	cst, err := c.Cluster(ctx)
	if err != nil {
		log.Fatalf("clusterchaos: /v1/cluster: %v", err)
	}
	doc := benchDoc{
		Schema:   "lbic-cluster-bench/v1",
		Workers:  nWorkers,
		Requests: reqs,
		Failed:   failed,
		Chaos:    chaos,
		ElapsedS: elapsed.Seconds(),
		Rps:      float64(reqs-failed) / elapsed.Seconds(),
		LatencyMS: map[string]float64{
			"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99), "max": lat[len(lat)-1],
		},
		Cluster: cst,
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatalf("clusterchaos: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatalf("clusterchaos: writing %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("clusterchaos: %v", err)
	}
	fmt.Printf("clusterchaos: drill ok — %d/%d served under chaos (p50 %.1fms p95 %.1fms, %d retries, %d hedges, %d fell back locally) -> %s\n",
		reqs-failed, reqs, doc.LatencyMS["p50"], doc.LatencyMS["p95"], cst.Retries, cst.Hedges, cst.Unavailable, out)
	if failed > 0 {
		log.Fatalf("clusterchaos: %d of %d requests failed under chaos — robustness story broken", failed, reqs)
	}
}
