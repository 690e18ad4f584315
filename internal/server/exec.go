package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/runner"
	"lbic/internal/tracing"
)

// cellSpec is one validated unit of simulation work: a named program under
// a full configuration, with the stable key the result cache, singleflight,
// and journal-style identities all share.
type cellSpec struct {
	// benchmark or pattern names the program, or trace holds an uploaded
	// recorded stream; exactly one is set.
	benchmark string
	pattern   string
	trace     *lbic.RecordedTrace
	port      lbic.PortConfig
	insts     uint64
	cpu       *lbic.CPUConfig
	mem       *lbic.MemParams
	key       string
}

// progToken is the program's name component of the cell key.
func (sp *cellSpec) progToken() string {
	switch {
	case sp.pattern != "":
		return "pat:" + sp.pattern
	case sp.trace != nil:
		return "trace:" + keyToken(sp.trace.Name())
	}
	return sp.benchmark
}

// keyToken makes an arbitrary stream name safe for cell keys and response
// headers: any byte outside printable ASCII (or a space) becomes '_'.
func keyToken(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c <= ' ' || c > '~' {
			b[i] = '_'
		}
	}
	return string(b)
}

// compileSpec validates one (program, port, budget) point against the
// request schema's rules and computes its stable key.
func (s *Server) compileSpec(benchmark, pattern string, port client.PortSpec, insts uint64, cpu *lbic.CPUConfig, mem *lbic.MemParams) (cellSpec, error) {
	sp := cellSpec{benchmark: benchmark, pattern: pattern, insts: insts, cpu: cpu, mem: mem}
	switch {
	case benchmark == "" && pattern == "":
		return sp, fmt.Errorf("one of benchmark or pattern is required")
	case benchmark != "" && pattern != "":
		return sp, fmt.Errorf("benchmark and pattern are mutually exclusive")
	}
	if insts == 0 {
		return sp, fmt.Errorf("insts must be positive (the kernels are non-halting steady-state loops)")
	}
	// Build now so an unknown name fails the request, not the cell; the
	// instance is cached for the simulation itself.
	if _, err := s.program(&sp); err != nil {
		return sp, err
	}
	p, err := port.Resolve()
	if err != nil {
		return sp, err
	}
	sp.port = p
	cfg := lbic.DefaultConfig()
	cfg.Port = p
	cfg.MaxInsts = insts
	cfg.CPU = cpu
	cfg.Mem = mem
	if err := cfg.Validate(); err != nil {
		return sp, err
	}
	sp.key = fmt.Sprintf("sim/%s/%s/i%d", sp.progToken(), p.Key(), insts)
	tok, err := overrideToken(cpu, mem)
	if err != nil {
		return sp, err
	}
	sp.key += tok
	return sp, nil
}

// overrideToken hashes CPU/memory baseline overrides into a key suffix.
// Overrides are not in the readable key; a hash of their JSON keeps distinct
// configurations from colliding in the caches.
func overrideToken(cpu *lbic.CPUConfig, mem *lbic.MemParams) (string, error) {
	if cpu == nil && mem == nil {
		return "", nil
	}
	h := fnv.New64a()
	enc, err := json.Marshal(struct {
		CPU *lbic.CPUConfig `json:"cpu,omitempty"`
		Mem *lbic.MemParams `json:"mem,omitempty"`
	}{cpu, mem})
	if err != nil {
		return "", err
	}
	h.Write(enc)
	return fmt.Sprintf("/c%x", h.Sum64()), nil
}

// compileTraceSpec validates one uploaded-trace cell. The stream must parse
// and validate in full — header bounds, framing, CRC — before any work is
// admitted. insts of 0 replays the whole trace; the key's budget token is
// the effective (clamped) instruction count, so "replay everything" shares
// a cache entry with an explicit full-length budget. The key also carries a
// hash of the raw upload: two traces that share a name but differ in
// content never collide.
func (s *Server) compileTraceSpec(raw []byte, port client.PortSpec, insts uint64, cpu *lbic.CPUConfig, mem *lbic.MemParams) (cellSpec, error) {
	rt, err := lbic.ReadTraceStream(bytes.NewReader(raw))
	if err != nil {
		return cellSpec{}, fmt.Errorf("invalid trace upload: %v", err)
	}
	sp := cellSpec{trace: rt, insts: insts, cpu: cpu, mem: mem}
	p, err := port.Resolve()
	if err != nil {
		return sp, err
	}
	sp.port = p
	cfg := lbic.DefaultConfig()
	cfg.Port = p
	cfg.MaxInsts = insts
	cfg.CPU = cpu
	cfg.Mem = mem
	if err := cfg.Validate(); err != nil {
		return sp, err
	}
	eff := rt.Len()
	if insts > 0 && insts < eff {
		eff = insts
	}
	h := fnv.New64a()
	h.Write(raw)
	sp.key = fmt.Sprintf("sim/%s@%x/%s/i%d", sp.progToken(), h.Sum64(), p.Key(), eff)
	tok, err := overrideToken(cpu, mem)
	if err != nil {
		return sp, err
	}
	sp.key += tok
	return sp, nil
}

// program returns the cell's built program, cached per name so the whole
// process shares one instance (and therefore one memoized fingerprint and
// one trace-cache recording) per program.
func (s *Server) program(sp *cellSpec) (*lbic.Program, error) {
	token := sp.progToken()
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if p, ok := s.programs[token]; ok {
		return p, nil
	}
	var (
		p   *lbic.Program
		err error
	)
	if sp.pattern != "" {
		p, err = lbic.BuildPattern(sp.pattern)
	} else {
		p, err = lbic.BuildBenchmark(sp.benchmark)
	}
	if err != nil {
		return nil, err
	}
	s.programs[token] = p
	return p, nil
}

// cellRun returns the source and configuration that simulate sp.
func (s *Server) cellRun(sp *cellSpec) (lbic.Source, lbic.Config, error) {
	cfg := lbic.DefaultConfig()
	cfg.Port = sp.port
	cfg.MaxInsts = sp.insts
	cfg.CPU = sp.cpu
	cfg.Mem = sp.mem
	// An uploaded trace is already a recording; the shared trace cache has
	// nothing to add.
	if sp.trace != nil {
		return lbic.TraceSource(sp.trace), cfg, nil
	}
	prog, err := s.program(sp)
	if err != nil {
		return lbic.Source{}, cfg, err
	}
	cfg.Trace = s.traces
	return lbic.ProgramSource(prog), cfg, nil
}

// flight is one in-progress cell execution; concurrent requests for the
// same key wait on done instead of running their own copy.
type flight struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// executeCell produces one cell's report: result cache, then singleflight
// dedup, then an actual bounded, isolated simulation. ctx only governs this
// caller's wait — the simulation itself runs under the server's lifetime so
// one impatient client cannot poison the waiters sharing its flight.
//
// When ctx carries a trace, the cell contributes an "exec <key>" span
// annotated with which reuse layer served it: result-cache hit, singleflight
// follower, or singleflight leader (the one that actually simulates).
func (s *Server) executeCell(ctx context.Context, sp cellSpec) client.CellResult {
	start := time.Now()
	ctx, span := tracing.Start(ctx, "exec "+sp.key)
	defer span.End()
	done := func(cr client.CellResult) client.CellResult {
		cr.ElapsedNS = time.Since(start).Nanoseconds()
		if cr.Error != "" {
			span.SetAttr("error", cr.Error)
		}
		return cr
	}
	cr := client.CellResult{Key: sp.key, Benchmark: sp.progToken(), Port: sp.port.Key()}
	if b, ok := s.results.get(sp.key); ok {
		span.SetAttr("result_cache", "hit")
		cr.Cached = true
		cr.Report = b
		return done(cr)
	}
	span.SetAttr("result_cache", "miss")

	s.flightMu.Lock()
	if f, ok := s.inflight[sp.key]; ok {
		s.flightMu.Unlock()
		span.SetAttr("singleflight", "follower")
		select {
		case <-f.done:
			s.mSingleflightShared.Add(1)
			if f.err != nil {
				cr.Error = f.err.Error()
			} else {
				cr.Report = f.bytes
			}
		case <-ctx.Done():
			cr.Error = ctx.Err().Error()
		}
		return done(cr)
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[sp.key] = f
	s.flightMu.Unlock()
	span.SetAttr("singleflight", "leader")

	f.bytes, f.err = s.simulateCell(ctx, sp)
	if f.err == nil {
		s.results.put(sp.key, f.bytes)
	}
	s.flightMu.Lock()
	delete(s.inflight, sp.key)
	s.flightMu.Unlock()
	close(f.done)

	if f.err != nil {
		cr.Error = f.err.Error()
	} else {
		cr.Report = f.bytes
	}
	return done(cr)
}

// simulateCell runs the actual simulation: one slot of the server-wide
// parallelism bound, one runner cell for the per-cell deadline and panic
// isolation, the shared trace cache for record-once/replay-many streaming.
// The simulation runs under the server's lifetime context — deliberately
// detached from the caller's cancellation — but adopts the caller's trace,
// so the runner's cell span and the simulate span still land in the
// request's (or job's) tree.
func (s *Server) simulateCell(ctx context.Context, sp cellSpec) ([]byte, error) {
	// The queue span is a leaf measuring the wait for a parallelism slot.
	_, span := tracing.Start(ctx, "queue "+sp.key)
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		span.End()
		return nil, s.baseCtx.Err()
	}
	span.End()
	defer func() { <-s.sem }()

	cell := runner.Cell[[]byte]{Key: sp.key, Run: func(ctx context.Context) ([]byte, error) {
		src, cfg, err := s.cellRun(&sp)
		if err != nil {
			return nil, err
		}
		res, err := lbic.Simulate(ctx, src, cfg)
		if err != nil {
			return nil, err
		}
		// Replayed runs are bit-identical to live ones; dropping the trace
		// cache counters makes the served report byte-identical to a direct
		// Simulate + NewReport of the same configuration.
		res.TraceCache = nil
		var buf bytes.Buffer
		if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}}
	cellStart := time.Now()
	out, _ := runner.Run(tracing.Adopt(s.baseCtx, ctx), []runner.Cell[[]byte]{cell}, runner.Options{
		Timeout:   s.opts.CellTimeout,
		Retries:   s.opts.Retries,
		KeepGoing: true,
	})
	r := out.Results[0]
	s.mCellsExecuted.Add(1)
	// Feed the duration estimator behind Retry-After with real executed-cell
	// wall time (queue wait excluded — Retry-After already models the queue).
	s.observeCell(time.Since(cellStart))
	if r.Err != nil {
		s.mCellFailures.Add(1)
		return nil, r.Err
	}
	return r.Value, nil
}
