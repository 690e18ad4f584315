package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	servedInsts = 100000
	sweepCells  = 40 // ten kernels x four ports
	// retainedJobs is lbicd's retained-job table size; served-sweep times
	// only once it is full, so eviction cost is steady from the first op.
	retainedJobs  = 64
	requestSchema = "lbic-sim-request/v1"
)

// hotPorts x the ten kernels is the served hot set warmed in set-up.
var hotPorts = []string{"true-4", "bank-4", "lbic-4x2", "coded-4x1"}

// The lbic-sim-request/v1 wire types the driver uses.
type (
	sweepRequest struct {
		Schema string   `json:"schema"`
		Ports  []string `json:"ports"`
		Insts  uint64   `json:"insts"`
	}
	simulateRequest struct {
		Schema    string `json:"schema"`
		Benchmark string `json:"benchmark"`
		Port      string `json:"port"`
		Insts     uint64 `json:"insts"`
	}
	cellResult struct {
		Benchmark string          `json:"benchmark"`
		Port      string          `json:"port"`
		Cached    bool            `json:"cached"`
		ElapsedNS int64           `json:"elapsed_ns"`
		Error     string          `json:"error"`
		Report    json.RawMessage `json:"report"`
	}
	jobStatus struct {
		ID     string `json:"id"`
		Failed int    `json:"failed"`
	}
	streamEvent struct {
		Type   string      `json:"type"`
		Cell   *cellResult `json:"cell"`
		Status *jobStatus  `json:"status"`
	}
)

// server is one running lbicd.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	hc      *http.Client
	exited  chan struct{}
}

var listening = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startServer starts the lbicd in bin on a free loopback port and waits
// until it answers /healthz.
func startServer(e *env, bin string, extraEnv ...string) (*server, error) {
	logName := "lbicd.log"
	if bin == e.ref {
		logName = "lbicd-ref.log"
	}
	logPath, err := e.path(logName)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, "lbicd"), "-addr", "127.0.0.1:0", "-jobs", "2", "-result-cache-mb", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lbicd: %w", err)
	}
	s := &server{cmd: cmd, logPath: logPath, exited: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("lbicd exited during start-up: %s", s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if s.base == "" {
			raw, _ := os.ReadFile(logPath)
			if m := listening.FindSubmatch(raw); m != nil {
				s.base = "http://" + string(m[1])
			}
			continue
		}
		if resp, err := s.hc.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("lbicd not healthy within 20s: %s", s.logTail())
}

// stop drains lbicd with SIGTERM, kills it after 10s, and waits for it. A
// nil server has nothing to stop.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	// A paused lbicd handles the SIGTERM once continued.
	s.resume()
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// pause holds lbicd with SIGSTOP and resume continues it; a nil server has
// nothing to hold.
func (s *server) pause() {
	if s != nil {
		s.cmd.Process.Signal(syscall.SIGSTOP)
	}
}

func (s *server) resume() {
	if s != nil {
		s.cmd.Process.Signal(syscall.SIGCONT)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) logTail() string {
	raw, _ := os.ReadFile(s.logPath)
	return lastLine(raw)
}

// post sends a JSON request and returns the response body; a non-2xx reply
// is an error.
func (s *server) post(path string, body any) (*http.Response, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.hc.Post(s.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp, raw, err
}

// sweep submits a sweep over all ten kernels and follows its stream until
// done. It fails unless every cell produced a report.
func (s *server) sweep(ports []string, insts uint64) (string, []cellResult, error) {
	_, raw, err := s.post("/v1/sweep", sweepRequest{Schema: requestSchema, Ports: ports, Insts: insts})
	if err != nil {
		return "", nil, err
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", nil, fmt.Errorf("decoding job status: %w", err)
	}
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return st.ID, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st.ID, nil, fmt.Errorf("job stream: HTTP %d", resp.StatusCode)
	}
	var cells []cellResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st.ID, cells, fmt.Errorf("decoding stream event: %w", err)
		}
		switch {
		case ev.Type == "cell" && ev.Cell != nil:
			if ev.Cell.Error != "" || len(ev.Cell.Report) == 0 {
				return st.ID, cells, fmt.Errorf("cell %s/%s failed: %s", ev.Cell.Benchmark, ev.Cell.Port, ev.Cell.Error)
			}
			cells = append(cells, *ev.Cell)
		case ev.Type == "done":
			if ev.Status != nil && ev.Status.Failed > 0 {
				return st.ID, cells, fmt.Errorf("job %s: %d cells failed", st.ID, ev.Status.Failed)
			}
			if want := 10 * len(ports); len(cells) != want {
				return st.ID, cells, fmt.Errorf("job %s: %d cells, want %d", st.ID, len(cells), want)
			}
			return st.ID, cells, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st.ID, cells, err
	}
	return st.ID, cells, fmt.Errorf("job %s: stream ended without done", st.ID)
}

// simulate runs one /v1/simulate and returns the report and whether the
// result cache served it.
func (s *server) simulate(bench, port string, insts uint64) ([]byte, bool, error) {
	resp, raw, err := s.post("/v1/simulate", simulateRequest{requestSchema, bench, port, insts})
	if err != nil {
		return nil, false, err
	}
	if len(raw) == 0 {
		return nil, false, fmt.Errorf("empty report for %s/%s", bench, port)
	}
	return raw, resp.Header.Get("X-Lbicd-Cache") == "hit", nil
}

// counters reads /metrics as a name -> value map of its counters.
func (s *server) counters() (map[string]float64, error) {
	resp, err := s.hc.Get(s.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(map[string]float64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out, nil
}

// queueWaits reads a job's span tree and returns every queue span's
// duration in ms: the wait for one of the server's parallelism slots.
func (s *server) queueWaits(jobID string) ([]float64, error) {
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var waits []float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var sp struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		}
		if json.Unmarshal(sc.Bytes(), &sp) == nil && strings.HasPrefix(sp.Name, "queue ") {
			waits = append(waits, float64(sp.DurNS)/1e6)
		}
	}
	return waits, sc.Err()
}

// warmServer starts the lbicd in bin and warms it: one sweep of the hot set
// records the ten kernels' traces and fills the result cache, and with
// fillJobs the same sweep repeats (as cache hits) until the retained-job
// table is full. It returns the server and how long set-up took.
func warmServer(e *env, bin string, fillJobs bool, extraEnv ...string) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(e, bin, extraEnv...)
	if err != nil {
		return nil, 0, err
	}
	jobs := 1
	if fillJobs {
		jobs = retainedJobs
	}
	for range jobs {
		if _, _, err := s.sweep(hotPorts, servedInsts); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("set-up sweep: %w", err)
		}
	}
	return s, time.Since(t0), nil
}

// daemons are the program's and the reference's lbicd for one run, each set
// up in e.setups cycles (program, reference, program); the last server of
// each is kept. Only the build whose step is running has its lbicd
// running: the other is paused, so work a daemon leaves running after its
// reply (a GC cycle, an asynchronous insert) lands in its own build's time.
type daemons struct {
	prog, ref           *server
	progSetup, refSetup side
}

func startDaemons(e *env, fillJobs bool) (*daemons, error) {
	d := &daemons{}
	progStep := func() (err error) {
		d.ref.pause()
		d.prog.stop()
		var t time.Duration
		if d.prog, t, err = warmServer(e, e.bin, fillJobs); err == nil {
			d.progSetup.add(t)
		}
		return err
	}
	refStep := func() (err error) {
		d.prog.pause()
		d.ref.stop()
		var t time.Duration
		if d.ref, t, err = warmServer(e, e.ref, fillJobs); err == nil {
			d.refSetup.add(t)
		}
		return err
	}
	for range e.setups {
		if err := cycle(progStep, refStep); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// only lets s run and pauses the other build's lbicd.
func (d *daemons) only(s *server) {
	for _, o := range []*server{d.prog, d.ref} {
		if o != s {
			o.pause()
		}
	}
	s.resume()
}

func (d *daemons) stop() {
	d.prog.stop()
	d.ref.stop()
}

// sample is one served report kept for the output check.
type sample struct {
	bench, port string
	report      []byte
}

// reservoir keeps a seeded uniform sample of k served reports.
type reservoir struct {
	rng   *rand.Rand
	k, n  int
	items []sample
}

func (r *reservoir) offer(s sample) {
	r.n++
	if len(r.items) < r.k {
		r.items = append(r.items, s)
	} else if j := r.rng.Intn(r.n); j < r.k {
		r.items[j] = s
	}
}

// checkReports recomputes each sampled report with lbicsim and returns how
// many differ from what the server sent.
func checkReports(e *env, samples []sample) (int, error) {
	bad := 0
	for _, s := range samples {
		c, err := runChild(filepath.Join(e.bin, "lbicsim"),
			[]string{"-bench", s.bench, "-port", s.port, "-insts", strconv.Itoa(servedInsts), "-json", "-"})
		if err != nil {
			return 0, err
		}
		var want, got bytes.Buffer
		err1 := json.Compact(&want, c.stdout)
		err2 := json.Compact(&got, s.report)
		if c.code != 0 || err1 != nil || err2 != nil || !bytes.Equal(want.Bytes(), got.Bytes()) {
			e.log("served report for %s on %s differs from lbicsim", s.bench, s.port)
			bad++
		}
	}
	return bad, nil
}

// servedErrPct measures paper_ipc_err_pct with a served sweep of the
// reference columns.
func servedErrPct(s *server) (float64, error) {
	ports := make([]string, len(paperRefs))
	for i, ref := range paperRefs {
		ports[i] = ref.port
	}
	_, cells, err := s.sweep(ports, tablesInsts)
	if err != nil {
		return 0, err
	}
	ipc := map[string]map[string]float64{}
	for _, c := range cells {
		var rep struct {
			IPC float64 `json:"ipc"`
		}
		if err := json.Unmarshal(c.Report, &rep); err != nil {
			return 0, fmt.Errorf("decoding report: %w", err)
		}
		if ipc[c.Port] == nil {
			ipc[c.Port] = map[string]float64{}
		}
		ipc[c.Port][c.Benchmark] = rep.IPC
	}
	return ipcErrPct(ipc)
}

// servedFinish reads the program's lbicd's peak RSS, measures
// paper_ipc_err_pct, and checks the sampled reports.
func servedFinish(e *env, d *daemons, r *result, samples []sample) error {
	d.only(d.prog)
	s := d.prog
	hwm, err := procHWM(s.pid())
	if err != nil {
		return err
	}
	errPct, err := servedErrPct(s)
	if err != nil {
		// An accuracy sweep that fails is a failed output check: the metric
		// is left out and the run is not correct.
		e.log("accuracy sweep: %v", err)
		errPct = math.NaN()
	}
	bad, err := checkReports(e, samples)
	if err != nil {
		return err
	}
	r.failed += bad
	r.correct = r.failed == 0
	r.add("max_rss_mb", hwm, "MiB")
	r.add("paper_ipc_err_pct", errPct, "%")
	r.note("max_rss_mb is lbicd's VmHWM at the end of the timed phase; %d sampled reports recomputed with lbicsim, %d differed", len(samples), bad)
	return nil
}

func runServedSweep(e *env, w *workload) (*result, error) {
	if e.trace {
		return sweepTraced(e, w)
	}
	d, err := startDaemons(e, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &result{correct: true}
	sampler := newPortSampler(rand.New(rand.NewSource(e.rng.Int63())), hotPorts...)
	check := &reservoir{rng: rand.New(rand.NewSource(e.rng.Int63())), k: 6}
	var prog, ref side
	// last holds the program's latest ports. Each reference op sweeps them
	// (they are new to the reference's lbicd too), so the two builds' ops in
	// a cycle do the same work and the pacing cancels the port mix.
	var last []string
	progOp := func() error {
		d.only(d.prog)
		ports, err := sweepPorts(sampler)
		if err != nil {
			return err
		}
		last = ports
		c := sweepOp(d.prog, ports)
		r.attempted++
		if c.err != nil {
			e.log("sweep op: %v", c.err)
			r.failed++
			return nil
		}
		prog.add(c.wall)
		cell := c.cells[check.rng.Intn(len(c.cells))]
		check.offer(sample{cell.Benchmark, cell.Port, cell.Report})
		return nil
	}
	refOp := func() error {
		d.only(d.ref)
		c := sweepOp(d.ref, last)
		if c.err != nil {
			return fmt.Errorf("reference sweep: %w", c.err)
		}
		ref.add(c.wall)
		return nil
	}
	l := newLoop(e.seconds, e.minOps)
	for l.more(len(prog.lat)) {
		if err := cycle(progOp, refOp); err != nil {
			return nil, err
		}
	}
	setupStat(r, w, d.progSetup, d.refSetup)
	opStats(r, w, prog, ref)
	if err := servedFinish(e, d, r, check.items); err != nil {
		return nil, err
	}
	r.note("a set-up is lbicd start to healthy, warmed with the hot set and %d retained jobs", retainedJobs)
	return r, nil
}

// sweepResult is one served-sweep op.
type sweepResult struct {
	wall  time.Duration
	jobID string
	cells []cellResult
	err   error // the op failed: a non-2xx reply or a failed cell
}

// sweepPorts draws one served-sweep op's four never-seen ports.
func sweepPorts(sampler *portSampler) ([]string, error) {
	ports := make([]string, sweepCells/10)
	for i := range ports {
		p, err := sampler.next()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	return ports, nil
}

// sweepOp is one served-sweep op: the ports over the ten kernels, followed
// to done.
func sweepOp(s *server, ports []string) sweepResult {
	t0 := time.Now()
	id, cells, err := s.sweep(ports, servedInsts)
	return sweepResult{wall: time.Since(t0), jobID: id, cells: cells, err: err}
}
