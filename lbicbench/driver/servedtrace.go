package main

import (
	"math/rand"
	"os"
	"time"
)

// snapshot is lbicd's state at one instant: CPU time, /metrics counters,
// and the GC cycles its gctrace output has logged so far.
type snapshot struct {
	cpu, sys time.Duration
	ctr      map[string]float64
	gc       []gcCycle
}

func serverSnapshot(s *server) (snapshot, error) {
	cpu, sys, err := procCPU(s.pid())
	if err != nil {
		return snapshot{}, err
	}
	ctr, err := s.counters()
	if err != nil {
		return snapshot{}, err
	}
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{cpu: cpu, sys: sys, ctr: ctr, gc: parseGCTrace(raw)}, nil
}

// record adds what lbicd did between before and after, over ops ops and
// wall of wall clock, to the traced samples.
func (after snapshot) record(s samples, before snapshot, ops float64, wall time.Duration) {
	d := func(name string) float64 { return after.ctr[name] - before.ctr[name] }
	cpu := after.cpu - before.cpu
	gcCPU, alloc := gcTotals(after.gc, len(before.gc))
	s.add("proc.cpu_ms_per_op", ms(cpu)/ops)
	// A served op starts no process; the process row is its kernel time.
	s.add("ledger.proc_ms", ms(after.sys-before.sys)/ops)
	s.add("proc.parallel_efficiency", cpu.Seconds()/(2*wall.Seconds()))
	if cpu > 0 {
		s.add("go.gc_cpu_share", gcCPU.Seconds()/cpu.Seconds())
	}
	s.add("go.alloc_mb_per_op", alloc/ops)
	if hits, misses := d("resultcache.hits"), d("resultcache.misses"); hits+misses > 0 {
		s.add("server.result_cache_hit_ratio", hits/(hits+misses))
	}
	s.add("server.cells_executed_per_op", d("server.cells_executed")/ops)
	s.add("tracecache.records_per_op", d("tracecache.records")/ops)
	if hits, recs := d("tracecache.hits"), d("tracecache.records"); hits+recs > 0 {
		s.add("tracecache.hit_ratio", hits/(hits+recs))
	}
}

// servedStep runs one step of a served traced run; lp is nil in the
// untraced phase.
type servedStep func(srv *server, sampler *portSampler, lp *ledgerProc) error

// servedPhases runs a served workload's traced run: a third of the budget
// against a plain lbicd (the untraced ops), then the rest against one
// started with GODEBUG=gctrace=1, with lbicledger pricing between steps.
func servedPhases(e *env, fillJobs bool, s samples, step servedStep) error {
	sampler := newPortSampler(rand.New(rand.NewSource(e.rng.Int63())), hotPorts...)
	plain, _, err := warmServer(e, e.bin, fillJobs)
	if err != nil {
		return err
	}
	l := newLoop(e.seconds/3, 2)
	for n := 0; l.more(n); n++ {
		if err := step(plain, sampler, nil); err != nil {
			plain.stop()
			return err
		}
	}
	plain.stop()
	srv, _, err := warmServer(e, e.bin, fillJobs, "GODEBUG=gctrace=1")
	if err != nil {
		return err
	}
	defer srv.stop()
	lp, err := startLedger(e)
	if err != nil {
		return err
	}
	defer lp.close()
	l = newLoop(2*e.seconds/3, 3)
	for n := 0; l.more(n); n++ {
		if err := step(srv, sampler, lp); err != nil {
			return err
		}
	}
	start, err := procStartMS(e)
	if err != nil {
		return err
	}
	s.add("proc.start_ms", start)
	return nil
}

func price(s samples, lp *ledgerProc, work ledgerWork) error {
	rep, err := lp.price(work)
	if err != nil {
		return err
	}
	s.addReply(rep)
	return nil
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// sweepTraced is served-sweep's traced run: each traced op is followed by
// its job trace and by pricing its 40 executed cells.
func sweepTraced(e *env, w *workload) (*result, error) {
	r := &result{}
	s := samples{}
	err := servedPhases(e, true, s, func(srv *server, sampler *portSampler, lp *ledgerProc) error {
		before, err := serverSnapshot(srv)
		if err != nil {
			return err
		}
		ports, err := sweepPorts(sampler)
		if err != nil {
			return err
		}
		c := sweepOp(srv, ports)
		r.attempted++
		if c.err != nil {
			e.log("sweep op: %v", c.err)
			r.failed++
			return nil
		}
		if lp == nil {
			s.add("untraced_ms", ms(c.wall))
			return nil
		}
		s.add("traced_ms", ms(c.wall))
		after, err := serverSnapshot(srv)
		if err != nil {
			return err
		}
		after.record(s, before, 1, c.wall)
		waits, err := srv.queueWaits(c.jobID)
		if err != nil {
			return err
		}
		s.add("server.queue_wait_ms_p50", median(waits))
		var hit, miss []float64
		work := ledgerWork{Insts: servedInsts, Scale: 1}
		for _, cell := range c.cells {
			if cell.Cached {
				hit = append(hit, float64(cell.ElapsedNS)/1e6)
				continue
			}
			miss = append(miss, float64(cell.ElapsedNS)/1e6)
			work.Cells = append(work.Cells, ledgerCell{cell.Benchmark, cell.Port})
		}
		// Every cell is a runner cell of the job's fan-out, and each
		// executed one runs once more under its own deadline and retries.
		work.RunnerCells = len(c.cells) + len(miss)
		s.add("server.hit_ms_p50", medianOrZero(hit))
		s.add("server.miss_ms_p50", median(miss))
		s.add("server.cell_exec_ms_p50", median(miss))
		return price(s, lp, work)
	})
	if err != nil {
		return nil, err
	}
	return layerResult(e, r, s, "experiments.cells_per_op", "experiments.memo_hits_per_op",
		"experiments.lane_width_mean", "runner.retries_per_op"), nil
}

// simulateTraced is served-simulate's traced run: the two clients run in
// windows of an eighth of the budget; after each traced window a sample of
// its never-seen points is priced and scaled to the window's ops.
func simulateTraced(e *env, w *workload) (*result, error) {
	r := &result{}
	s := samples{}
	gen := newSimulateGen(e.rng.Int63())
	window := e.seconds / 8
	err := servedPhases(e, false, s, func(srv *server, _ *portSampler, lp *ledgerProc) error {
		before, err := serverSnapshot(srv)
		if err != nil {
			return err
		}
		none := &reservoir{rng: rand.New(rand.NewSource(1))}
		ops, err := simulateClients(srv, gen, window, 0, none, none)
		if err != nil {
			return err
		}
		r.attempted += ops.attempted
		r.failed += ops.failed
		if len(ops.lat) == 0 {
			return nil
		}
		if lp == nil {
			s.add("untraced_ms", median(ops.lat))
			return nil
		}
		after, err := serverSnapshot(srv)
		if err != nil {
			return err
		}
		n := float64(len(ops.lat))
		s.add("traced_ms", median(ops.lat))
		after.record(s, before, n, ops.wall)
		s.add("server.hit_ms_p50", medianOrZero(ops.hitLat))
		s.add("server.miss_ms_p50", medianOrZero(ops.missLat))
		s.add("server.cell_exec_ms_p50", medianOrZero(ops.missLat))
		fresh := ops.fresh[:min(len(ops.fresh), 6)]
		if len(fresh) == 0 {
			return nil
		}
		work := ledgerWork{
			Insts:       servedInsts,
			RunnerCells: len(fresh),
			Scale:       float64(len(ops.fresh)) / float64(len(fresh)) / n,
		}
		for _, f := range fresh {
			work.Cells = append(work.Cells, ledgerCell{f.bench, f.port})
		}
		return price(s, lp, work)
	})
	if err != nil {
		return nil, err
	}
	// /v1/simulate exports no span tree, so its queue wait is not observable.
	r.note("server.queue_wait_ms_p50 is not observable on /v1/simulate and prints 0")
	return layerResult(e, r, s, "experiments.cells_per_op", "experiments.memo_hits_per_op",
		"experiments.lane_width_mean", "runner.retries_per_op", "server.queue_wait_ms_p50"), nil
}
