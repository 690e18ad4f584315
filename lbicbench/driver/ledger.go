package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// The traced mode prints the per-layer metrics. Counts come from output the
// program already produces (lbictables -trace-out spans and its trace-cache
// summary line, /metrics, /v1/jobs/{id}/trace, GODEBUG=gctrace=1); unit
// costs come from lbicledger, which times the layers' exported functions on
// the op's own inputs. The cost ledger multiplies them by the op's exact
// work, one row per layer, and sets the sum beside the untraced op's CPU.

// ledgerRows are the layers lbicledger prices, as ledger.<row>_ms.
var ledgerRows = []string{"cpu", "tracecache", "workload", "sweep", "lbic"}

// ledgerWork is one op's work as lbicledger replays it; the wire format of
// the helper's standard input.
type ledgerWork struct {
	Insts uint64 `json:"insts"`
	// Build, Record, Characterize and RefStream list kernels built, traced,
	// characterized (Table 2) and reference-stream analyzed (Figure 3).
	Build        []string `json:"build,omitempty"`
	Record       []string `json:"record,omitempty"`
	Characterize []string `json:"characterize,omitempty"`
	RefStream    []string `json:"refstream,omitempty"`
	// Batches are lane batches stepped off one shared cursor; Cells are
	// single runs (decode, core, run assembly and a report each).
	Batches []ledgerBatch `json:"batches,omitempty"`
	Cells   []ledgerCell  `json:"cells,omitempty"`
	// RunnerCells is the number of runner cells the op schedules.
	RunnerCells int `json:"runner_cells"`
	// Scale multiplies every row: the ops' worth of work this item stands
	// for, inverted (a sample of n of an op's m cells has scale m/n).
	Scale float64 `json:"scale"`
}

// ledgerBatch is one lane batch: a kernel or generator key, and its lanes'
// ports in lane order.
type ledgerBatch struct {
	Source string   `json:"source"`
	Ports  []string `json:"ports"`
}

type ledgerCell struct {
	Source string `json:"source"`
	Port   string `json:"port"`
}

// ledgerReply is lbicledger's answer: rows in ms per op by layer, and the
// unit costs and exact counts by metric name.
type ledgerReply struct {
	Rows  map[string]float64 `json:"rows"`
	Units map[string]float64 `json:"units"`
	Error string             `json:"error"`
}

// ledgerProc is a running lbicledger, priced one work item at a time so it
// never competes with an op for the CPUs.
type ledgerProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startLedger(e *env) (*ledgerProc, error) {
	cmd := exec.Command(filepath.Join(e.bin, "lbicledger"))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lbicledger: %w", err)
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return &ledgerProc{cmd: cmd, in: in, out: sc}, nil
}

func (lp *ledgerProc) price(w ledgerWork) (ledgerReply, error) {
	buf, err := json.Marshal(w)
	if err != nil {
		return ledgerReply{}, err
	}
	if _, err := lp.in.Write(append(buf, '\n')); err != nil {
		return ledgerReply{}, fmt.Errorf("writing to lbicledger: %w", err)
	}
	if !lp.out.Scan() {
		return ledgerReply{}, fmt.Errorf("lbicledger exited: %v", lp.out.Err())
	}
	var rep ledgerReply
	if err := json.Unmarshal(lp.out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("decoding lbicledger reply: %w", err)
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("lbicledger: %s", rep.Error)
	}
	return rep, nil
}

func (lp *ledgerProc) close() {
	lp.in.Close()
	lp.cmd.Wait()
}

// samples collects one value per traced iteration for each metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// addReply records a priced work item.
func (s samples) addReply(rep ledgerReply) {
	for k, v := range rep.Rows {
		s.add("ledger."+k+"_ms", v)
	}
	for k, v := range rep.Units {
		s.add(k, v)
	}
}

// layerResult turns the traced samples into BENCHMARK.json's per-layer
// metrics: medians, the ledger's sum and unattributed share, and the
// tracing overhead. Metrics of layers the workload does not exercise are in
// zero; a metric with no sample at all is left out by printResult.
func layerResult(e *env, r *result, s samples, zero ...string) *result {
	for _, z := range zero {
		s[z] = []float64{0}
	}
	sum := 0.0
	for _, row := range ledgerRows {
		sum += median(s["ledger."+row+"_ms"])
	}
	sum += median(s["ledger.proc_ms"])
	cpu := median(s["proc.cpu_ms_per_op"])
	s["ledger.sum_ms"] = []float64{sum}
	s["ledger.unattributed_share"] = []float64{1 - sum/cpu}
	s["ledger.trace_overhead_ms"] = []float64{median(s["traced_ms"]) - median(s["untraced_ms"])}
	for _, m := range e.perLayer {
		r.add(m.Name, median(s[m.Name]), m.Unit)
	}
	r.correct = r.failed == 0
	r.note("ledger: rows sum to %.1f ms per op against %.1f ms of untraced op CPU (%d priced ops)",
		sum, cpu, len(s["ledger.cpu_ms"]))
	r.note("trace overhead: traced op median %.1f ms, untraced %.1f ms",
		median(s["traced_ms"]), median(s["untraced_ms"]))
	return r
}

// tablesTraced is paper-tables' traced run. Each iteration runs an
// untraced op, a traced op (-trace-out, gctrace) and prices the traced op's
// work, so the ledger and the op CPU it is compared with are sampled in the
// same host phases.
func tablesTraced(e *env, w *workload) (*result, error) {
	lp, err := startLedger(e)
	if err != nil {
		return nil, err
	}
	defer lp.close()
	spans, err := e.path("spans.json")
	if err != nil {
		return nil, err
	}
	r := &result{}
	s := samples{}
	var work *ledgerWork
	l := newLoop(e.seconds, 3)
	for n := 0; l.more(n); n++ {
		u, ok, err := tablesOp(e, e.bin, []string{"-q"})
		if err != nil {
			return nil, err
		}
		t, tok, err := tablesOp(e, e.bin, []string{"-trace-out", spans}, "GODEBUG=gctrace=1")
		if err != nil {
			return nil, err
		}
		r.attempted += 2
		if !ok {
			r.failed++
		}
		if !tok {
			r.failed++
		}
		if !ok || !tok {
			continue
		}
		s.add("untraced_ms", ms(u.wall))
		s.add("traced_ms", ms(t.wall))
		s.add("proc.cpu_ms_per_op", ms(u.cpu))
		s.add("proc.parallel_efficiency", u.cpu.Seconds()/(2*u.wall.Seconds()))
		gcCPU, alloc := gcTotals(parseGCTrace(t.stderr), 0)
		s.add("go.gc_cpu_share", gcCPU.Seconds()/t.cpu.Seconds())
		s.add("go.alloc_mb_per_op", alloc)
		if work == nil {
			if work, err = tablesWork(spans, t.stdout, t.stderr, s); err != nil {
				return nil, err
			}
		}
		rep, err := lp.price(*work)
		if err != nil {
			return nil, err
		}
		s.addReply(rep)
		start, err := procStartMS(e)
		if err != nil {
			return nil, err
		}
		s.add("proc.start_ms", start)
		// The process row: its start, and the kernel time the op spent.
		s.add("ledger.proc_ms", start+ms(u.sys))
	}
	return layerResult(e, r, s, "server.hit_ms_p50", "server.miss_ms_p50", "server.queue_wait_ms_p50",
		"server.cell_exec_ms_p50", "server.result_cache_hit_ratio", "server.cells_executed_per_op"), nil
}

// chromeEvent is one span of lbictables -trace-out.
type chromeEvent struct {
	Name string         `json:"name"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

var cacheSummary = regexp.MustCompile(`trace cache: (\d+) recordings, (\d+) replays`)

// tablesWork reads one traced op's spans, tables and trace-cache summary
// into the work lbicledger replays, and records the op's exact counts.
func tablesWork(spansPath string, stdout, stderr []byte, s samples) (*ledgerWork, error) {
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", spansPath, err)
	}
	work := &ledgerWork{Insts: tablesInsts, Scale: 1}
	type batch struct {
		ev    chromeEvent
		lanes map[int]string
	}
	var batches []*batch
	var lanes []chromeEvent
	kernels := map[string]bool{}
	retries := 0
	for _, ev := range doc.TraceEvents {
		switch f := strings.Fields(ev.Name); {
		case len(f) == 2 && f[0] == "cell":
			work.RunnerCells++
			if a, ok := ev.Args["attempts"].(float64); ok {
				retries += int(a) - 1
			}
			parts := strings.Split(f[1], "/")
			switch parts[0] {
			case "char":
				work.Characterize = append(work.Characterize, parts[1])
			case "refs":
				work.RefStream = append(work.RefStream, parts[1])
			}
		case len(f) == 4 && f[0] == "simulate" && f[1] == "batch":
			batches = append(batches, &batch{ev: ev, lanes: map[int]string{}})
		case len(f) == 2 && f[0] == "simulate":
			lanes = append(lanes, ev)
			if !strings.HasPrefix(f[1], "gen:") {
				kernels[f[1]] = true
			}
		}
	}
	// A lane belongs to the batch of its source whose span encloses its
	// start; batches of one source never overlap.
	for _, ev := range lanes {
		src := strings.Fields(ev.Name)[1]
		port, _ := ev.Args["port"].(string)
		lane, isLane := ev.Args["lane"].(float64)
		var home *batch
		for _, b := range batches {
			if isLane && strings.Fields(b.ev.Name)[2] == src && ev.TS >= b.ev.TS && ev.TS <= b.ev.TS+b.ev.Dur {
				home = b
			}
		}
		if home == nil {
			work.Cells = append(work.Cells, ledgerCell{src, port})
			continue
		}
		home.lanes[int(lane)] = port
	}
	nLanes := 0
	for _, b := range batches {
		lb := ledgerBatch{Source: strings.Fields(b.ev.Name)[2]}
		for i := range len(b.lanes) {
			p, ok := b.lanes[i]
			if !ok {
				return nil, fmt.Errorf("batch %q is missing lane %d", b.ev.Name, i)
			}
			lb.Ports = append(lb.Ports, p)
		}
		nLanes += len(lb.Ports)
		work.Batches = append(work.Batches, lb)
	}
	for k := range kernels {
		work.Build = append(work.Build, k)
	}
	sort.Strings(work.Build)
	m := cacheSummary.FindSubmatch(stderr)
	if m == nil {
		return nil, fmt.Errorf("no trace-cache summary in lbictables output")
	}
	records, _ := strconv.Atoi(string(m[1]))
	replays, _ := strconv.Atoi(string(m[2]))
	if records > len(work.Build) {
		return nil, fmt.Errorf("%d recordings of %d kernels", records, len(work.Build))
	}
	work.Record = work.Build[:records]
	requested, err := requestedSims(stdout)
	if err != nil {
		return nil, err
	}
	s.add("tracecache.records_per_op", float64(records))
	s.add("tracecache.hit_ratio", float64(replays)/float64(replays+records))
	s.add("experiments.cells_per_op", float64(work.RunnerCells))
	s.add("runner.retries_per_op", float64(retries))
	s.add("experiments.lane_width_mean", float64(nLanes)/float64(len(batches)))
	s.add("experiments.memo_hits_per_op", float64(requested-len(lanes)))
	return work, nil
}

// requestedSims counts the simulation results the op's tables show: every
// benchmark cell of the IPC and conflict tables (Tables 3 and 4, coded
// banks, the workload matrices). Cells beyond the simulations actually run
// were served from the sweep's memo.
func requestedSims(stdout []byte) (int, error) {
	ts, err := decodeTables(stdout)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range ts {
		if strings.HasPrefix(t.Title, "Table 2") || strings.HasPrefix(t.Title, "Figure 3") {
			continue
		}
		for _, row := range t.Rows {
			if !strings.HasPrefix(row[0], "SPEC") && row[0] != "Average" {
				n += len(row) - 1
			}
		}
	}
	return n, nil
}
