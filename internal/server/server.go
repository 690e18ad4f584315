// Package server implements lbicd, the batched simulation service: an HTTP
// JSON front end over the library's simulation pieces. Single runs
// (/v1/simulate) and whole sweeps (/v1/sweep) are validated against the
// versioned lbic-sim-request/v1 schema, scheduled onto internal/runner with
// bounded parallelism, per-cell deadlines, and panic isolation, deduplicated
// across concurrent identical requests by a singleflight keyed on the stable
// cell key, and served from two reuse layers — a process-wide trace cache
// (record once, replay many) and an LRU result cache keyed by (program,
// config) — so a repeated table regeneration costs no simulation at all.
// Jobs stream per-cell progress as JSONL or SSE, /metrics exports the
// registry, and a graceful drain finishes in-flight work before exit.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/metrics"
	"lbic/internal/runner"
	"lbic/internal/tracing"
)

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	// MaxParallel bounds concurrently executing simulation cells across all
	// requests and jobs. Default: GOMAXPROCS.
	MaxParallel int
	// QueueLimit bounds admitted-but-unfinished cells; past it requests are
	// rejected with 429 + Retry-After. Default 1024; < 0 for unlimited.
	QueueLimit int
	// CellTimeout bounds each cell attempt (runner deadline + abandonment).
	// Default 5m; < 0 for none.
	CellTimeout time.Duration
	// Retries re-attempts failed (non-timeout) cells. Default 0.
	Retries int
	// TraceCacheBytes budgets the shared trace cache. Default 256 MiB;
	// < 0 disables trace caching (every run re-emulates).
	TraceCacheBytes int64
	// ResultCacheBytes budgets the report LRU. Default 64 MiB; < 0 disables
	// result caching.
	ResultCacheBytes int64
	// MaxJobs bounds retained sweep jobs; when full, the oldest finished job
	// is evicted, and if none has finished new sweeps are rejected with 429.
	// Default 64.
	MaxJobs int
	// Log receives one structured line per HTTP request (request ID, method,
	// route, status, bytes, duration). Default: discard.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxParallel <= 0 {
		o.MaxParallel = runtime.GOMAXPROCS(0)
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 1024
	}
	if o.CellTimeout == 0 {
		o.CellTimeout = 5 * time.Minute
	} else if o.CellTimeout < 0 {
		o.CellTimeout = 0
	}
	if o.TraceCacheBytes == 0 {
		o.TraceCacheBytes = 256 << 20
	}
	if o.ResultCacheBytes == 0 {
		o.ResultCacheBytes = 64 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	return o
}

// Server is the lbicd service. Create with New, mount Handler, and on
// shutdown call Drain (graceful) or Close (immediate).
type Server struct {
	opts  Options
	log   *slog.Logger
	start time.Time

	baseCtx context.Context
	cancel  context.CancelFunc

	// sem bounds concurrently executing cells server-wide.
	sem chan struct{}
	// traces is the process-wide record-once/replay-many trace cache; nil
	// when disabled.
	traces *lbic.TraceCache
	// results is the report LRU; nil when disabled.
	results *resultCache

	progMu   sync.Mutex
	programs map[string]*lbic.Program

	flightMu sync.Mutex
	inflight map[string]*flight

	// admitMu guards the admission state: wg.Add must be decided under the
	// same lock that Drain uses to flip draining, or a request could slip in
	// after the drain started waiting.
	admitMu  sync.Mutex
	draining bool
	queued   int
	wg       sync.WaitGroup

	jobsMu  sync.Mutex
	jobs    map[string]*job
	jobSeq  []string // ids in creation order, for MaxJobs eviction
	nextJob atomic.Uint64

	mRequests         atomic.Uint64
	mSimRequests      atomic.Uint64
	mSweepRequests    atomic.Uint64
	mBadRequests      atomic.Uint64
	mRejectedQueue    atomic.Uint64
	mRejectedDraining atomic.Uint64
	mCellsExecuted    atomic.Uint64
	mCellFailures     atomic.Uint64

	mSingleflightShared atomic.Uint64

	// avgCellNS is an EWMA of executed-cell wall time, feeding the computed
	// Retry-After on 429/503 (backlog depth × average cell time / slots).
	avgCellNS atomic.Int64

	// nextReq numbers generated request IDs (requests arriving without an
	// X-Request-Id header).
	nextReq atomic.Uint64
	// latMu guards routeLat, the per-route request latency histograms
	// created on first hit.
	latMu    sync.Mutex
	routeLat map[string]*metrics.LatencyHistogram
}

// New returns a ready Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		opts:     opts,
		log:      log,
		start:    time.Now(),
		baseCtx:  ctx,
		cancel:   cancel,
		sem:      make(chan struct{}, opts.MaxParallel),
		programs: make(map[string]*lbic.Program),
		inflight: make(map[string]*flight),
		jobs:     make(map[string]*job),
		routeLat: make(map[string]*metrics.LatencyHistogram),
	}
	if opts.TraceCacheBytes >= 0 {
		s.traces = lbic.NewTraceCache(opts.TraceCacheBytes)
	}
	if opts.ResultCacheBytes >= 0 {
		s.results = newResultCache(opts.ResultCacheBytes)
	}
	return s
}

// Handler returns the service's route multiplexer, wrapped in the
// observability middleware: every request gets an X-Request-Id (propagated
// from the caller or generated), a root span on a per-request trace, one
// structured log line, and a sample in its route's latency histogram.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /v1/simulate", s.handleSimulate},
		{"POST /v1/sweep", s.handleSweep},
		{"GET /v1/jobs/{id}", s.handleJob},
		{"GET /v1/jobs/{id}/stream", s.handleJobStream},
		{"GET /v1/jobs/{id}/trace", s.handleJobTrace},
		{"GET /healthz", s.handleHealthz},
		{"GET /metrics", s.handleMetrics},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, rt.h)
		// Pre-create the latency histogram so every route appears in the
		// exposition from the first scrape, not only after its first hit.
		s.routeLatency(rt.pattern)
	}
	return s.observe(mux)
}

// statusWriter captures the status and byte count of a response, passing
// Flush through so streaming handlers keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe wraps mux with the per-request observability envelope. The route
// label comes from the mux's own pattern match (e.g. "POST /v1/simulate"),
// so metrics and logs never explode on unbounded path cardinality.
func (s *Server) observe(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%d", s.nextReq.Add(1))
		}
		w.Header().Set("X-Request-Id", reqID)
		_, route := mux.Handler(r)
		if route == "" {
			route = r.Method + " unmatched"
		}

		tr := tracing.New()
		ctx := tracing.NewContext(r.Context(), tr)
		ctx, span := tracing.Start(ctx, route)
		span.SetAttr("request_id", reqID)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sw, r.WithContext(ctx))

		span.SetAttr("status", sw.status)
		span.End()
		elapsed := time.Since(start)
		s.routeLatency(route).Observe(elapsed)
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("dur", elapsed),
		)
	})
}

// routeLatency returns (creating on first hit) the latency histogram for a
// route label.
func (s *Server) routeLatency(route string) *metrics.LatencyHistogram {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	h, ok := s.routeLat[route]
	if !ok {
		h = metrics.NewLatencyHistogram("server.request_duration_seconds",
			"HTTP request latency by route.", fmt.Sprintf("route=%q", route), nil)
		s.routeLat[route] = h
	}
	return h
}

// BeginDrain stops admitting new work; in-flight requests and jobs keep
// running. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
}

// Drain begins the drain and waits for every admitted request and job to
// finish, or for ctx; either way the server is shut down on return.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancel()
	return err
}

// Close shuts the server down immediately: running cells are canceled and
// unfinished jobs end in the canceled state.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancel()
}

// TraceCache exposes the shared trace cache (nil when disabled) so an
// embedding process can pre-warm or inspect it.
func (s *Server) TraceCache() *lbic.TraceCache { return s.traces }

// errQueueFull and errDraining distinguish the two admission rejections.
var (
	errQueueFull = fmt.Errorf("queue full")
	errDraining  = fmt.Errorf("server is draining")
)

// admit reserves n cells of queue space and a membership in the drain wait
// group; the returned release undoes both when the work settles.
func (s *Server) admit(n int) (release func(), err error) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if s.opts.QueueLimit > 0 && s.queued+n > s.opts.QueueLimit {
		return nil, errQueueFull
	}
	s.queued += n
	s.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.admitMu.Lock()
			s.queued -= n
			s.admitMu.Unlock()
			s.wg.Done()
		})
	}, nil
}

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// Compact, unescaped output keeps embedded RawMessage reports equal to
	// json.Compact of the direct WriteJSON bytes.
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError writes the uniform error body; 429 and 503 carry a computed
// Retry-After.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, code, client.ErrorResponse{Error: msg})
}

// retryAfterSeconds estimates when a rejected client should come back: the
// time for the current admission backlog to drain through the parallelism
// bound at the observed average cell duration (1s assumed before the first
// cell settles), clamped to [1, 120]. While draining, the floor rises to
// 5s — the process is going away and, in a rolling restart, will take at
// least that long to come back.
func (s *Server) retryAfterSeconds() int {
	s.admitMu.Lock()
	queued, draining := s.queued, s.draining
	s.admitMu.Unlock()
	avg := time.Duration(s.avgCellNS.Load())
	if avg <= 0 {
		avg = time.Second
	}
	est := time.Duration(queued) * avg / time.Duration(s.opts.MaxParallel)
	secs := int((est + time.Second - 1) / time.Second)
	lo := 1
	if draining {
		lo = 5
	}
	if secs < lo {
		secs = lo
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

// observeCell feeds one executed cell's wall time into the EWMA behind
// retryAfterSeconds (α = 1/4).
func (s *Server) observeCell(elapsed time.Duration) {
	for {
		old := s.avgCellNS.Load()
		upd := old + (int64(elapsed)-old)/4
		if old == 0 {
			upd = int64(elapsed)
		}
		if s.avgCellNS.CompareAndSwap(old, upd) {
			return
		}
	}
}

// rejectAdmission maps an admit error to its status.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	if err == errDraining {
		s.mRejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.mRejectedQueue.Add(1)
	s.writeError(w, http.StatusTooManyRequests, err.Error())
}

// decodeRequest strictly decodes a schema-versioned request body of at most
// limit bytes.
func decodeRequest(r *http.Request, v any, schema *string, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %v", err)
	}
	if *schema != client.RequestSchema {
		return fmt.Errorf("unknown request schema %q (want %q)", *schema, client.RequestSchema)
	}
	return nil
}

// simulateSpec decodes and validates one /v1/simulate body: everything the
// endpoint does before admission.
func (s *Server) simulateSpec(r *http.Request) (cellSpec, error) {
	var req client.SimulateRequest
	// Trace uploads ride inside the JSON body, so /v1/simulate accepts a
	// larger request than the name-only endpoints.
	if err := decodeRequest(r, &req, &req.Schema, 8<<20); err != nil {
		return cellSpec{}, err
	}
	if len(req.Trace) > 0 {
		if req.Benchmark != "" || req.Pattern != "" {
			return cellSpec{}, errors.New("trace is mutually exclusive with benchmark and pattern")
		}
		return s.compileTraceSpec(req.Trace, req.Port, req.Insts, req.CPU, req.Mem)
	}
	return s.compileSpec(req.Benchmark, req.Pattern, req.Port, req.Insts, req.CPU, req.Mem)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	s.mSimRequests.Add(1)
	sp, err := s.simulateSpec(r)
	if err != nil {
		s.mBadRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	release, err := s.admit(1)
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}
	defer release()
	cr := s.executeCell(r.Context(), sp)
	if cr.Error != "" {
		s.writeError(w, http.StatusInternalServerError, cr.Error)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Lbicd-Cell-Key", cr.Key)
	if cr.Cached {
		w.Header().Set("X-Lbicd-Cache", "hit")
	} else {
		w.Header().Set("X-Lbicd-Cache", "miss")
	}
	// The raw report bytes, exactly as a direct Simulate + WriteJSON emits.
	w.Write(cr.Report)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	s.mSweepRequests.Add(1)
	var req client.SweepRequest
	if err := decodeRequest(r, &req, &req.Schema, 1<<20); err != nil {
		s.mBadRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Ports) == 0 {
		s.mBadRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, "ports must list at least one organization")
		return
	}
	benchmarks := req.Benchmarks
	if len(benchmarks) == 0 {
		benchmarks = lbic.BenchmarkNames()
	}
	var specs []cellSpec
	seen := make(map[string]bool)
	for _, b := range benchmarks {
		for _, p := range req.Ports {
			sp, err := s.compileSpec(b, "", p, req.Insts, req.CPU, req.Mem)
			if err != nil {
				s.mBadRequests.Add(1)
				s.writeError(w, http.StatusBadRequest, fmt.Sprintf("%s × %s: %v", b, p, err))
				return
			}
			// Identical cells listed twice are one unit of work.
			if !seen[sp.key] {
				seen[sp.key] = true
				specs = append(specs, sp)
			}
		}
	}
	release, err := s.admit(len(specs))
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}
	j, err := s.registerJob(len(specs))
	if err != nil {
		release()
		s.mRejectedQueue.Add(1)
		s.writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	go s.runJob(j, specs, release)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// registerJob allocates a job slot, evicting the oldest finished job when
// the retention cap is reached.
func (s *Server) registerJob(total int) (*job, error) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for len(s.jobs) >= s.opts.MaxJobs {
		evicted := false
		for i, id := range s.jobSeq {
			if j, ok := s.jobs[id]; ok && j.status(false).State != client.JobRunning {
				delete(s.jobs, id)
				s.jobSeq = append(s.jobSeq[:i], s.jobSeq[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, fmt.Errorf("job table full (%d running jobs)", len(s.jobs))
		}
	}
	id := fmt.Sprintf("job-%d", s.nextJob.Add(1))
	j := newJob(id, total)
	s.jobs[id] = j
	s.jobSeq = append(s.jobSeq, id)
	return j, nil
}

// runJob executes a sweep's cells on the runner under the server's
// parallelism bound and publishes each settled cell to the job's stream.
// The whole sweep records into the job's own trace: one root span for the
// job, one subtree per cell, down to the simulate spans — exported live or
// after the fact by GET /v1/jobs/{id}/trace.
func (s *Server) runJob(j *job, specs []cellSpec, release func()) {
	defer release()
	jctx, root := j.trace.Start(tracing.NewContext(s.baseCtx, j.trace), "job "+j.id)
	root.SetAttr("cells", len(specs))
	cells := make([]runner.Cell[struct{}], len(specs))
	for i, sp := range specs {
		cells[i] = runner.Cell[struct{}]{Key: sp.key, Run: func(ctx context.Context) (struct{}, error) {
			j.publishCell(s.executeCell(ctx, sp))
			return struct{}{}, nil
		}}
	}
	// The per-cell deadline, retry, and panic story lives inside
	// executeCell's own runner invocation (shared with /v1/simulate); this
	// outer run provides the fan-out and honors server shutdown.
	runner.Run(jctx, cells, runner.Options{Jobs: s.opts.MaxParallel, KeepGoing: true})
	root.End()
	j.finish()
	s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "job finished",
		slog.String("id", j.id), slog.Int("cells", len(specs)))
}

func (s *Server) lookupJob(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
	}
	i := 0
	// SSE reconnects resume: the id: field on every event is its index in
	// the job's stream, and a Last-Event-ID header (sent automatically by
	// EventSource and by client.StreamSSE) skips the prefix the subscriber
	// already consumed — no cell is ever double-counted across a dropped
	// connection.
	if sse {
		i = resumeIndex(r.Header.Get("Last-Event-ID"))
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for {
		evs, wake, final := j.next(i)
		for k, ev := range evs {
			if sse {
				fmt.Fprintf(w, "event: %s\nid: %d\ndata: ", ev.Type, i+k)
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
		}
		i += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if final && len(evs) == 0 {
			return
		}
		if len(evs) == 0 {
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			case <-s.baseCtx.Done():
				return
			}
		}
	}
}

// resumeIndex maps an SSE Last-Event-ID to the stream index after it. Any
// id at or past the job's last event resumes past the end, including ids
// too large for an int, so a finished job's stream ends cleanly; a missing
// or malformed id replays from the start.
func resumeIndex(lastID string) int {
	last, err := strconv.ParseUint(lastID, 10, 64)
	switch {
	case err != nil && !errors.Is(err, strconv.ErrRange):
		return 0
	case last >= math.MaxInt:
		return math.MaxInt
	}
	return int(last) + 1
}

// buildHealth assembles the health body: status plus the binary's build
// identity, so "which lbicd answered?" is one curl away.
func (s *Server) buildHealth(status string) client.Health {
	h := client.Health{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.GoVersion = bi.GoVersion
		h.Module = bi.Main.Path
		h.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.Revision = kv.Value
			}
		}
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admitMu.Lock()
	draining := s.draining
	s.admitMu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, s.buildHealth("draining"))
		return
	}
	writeJSON(w, http.StatusOK, s.buildHealth("ok"))
}

// handleJobTrace exports a job's span tree: the default is the lbic-trace/v1
// JSONL stream; ?format=chrome serves a chrome://tracing-loadable document.
// The trace is available while the job runs (open spans are marked) and
// after it finishes, for as long as the job is retained.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	spans := j.trace.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		lbic.WriteChromeTrace(w, j.id, spans)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	lbic.WriteTraceJSONL(w, j.id, j.trace.Epoch().UnixNano(), spans)
}

// metricsRegistry assembles a fresh registry from the server's live
// counters, the two caches' stats and the process's memory, in stable order.
func (s *Server) metricsRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	add := func(name, help string, v uint64) {
		reg.Counter(name, help).Add(v)
	}
	add("server.requests", "HTTP requests received", s.mRequests.Load())
	add("server.sim_requests", "POST /v1/simulate requests", s.mSimRequests.Load())
	add("server.sweep_requests", "POST /v1/sweep requests", s.mSweepRequests.Load())
	add("server.bad_requests", "requests rejected by schema validation", s.mBadRequests.Load())
	add("server.rejected_queue_full", "requests rejected with 429 (queue full)", s.mRejectedQueue.Load())
	add("server.rejected_draining", "requests rejected with 503 (draining)", s.mRejectedDraining.Load())
	add("server.cells_executed", "simulation cells actually run (not served from a cache or shared flight)", s.mCellsExecuted.Load())
	add("server.cell_failures", "executed cells that failed", s.mCellFailures.Load())
	add("server.singleflight_shared", "requests served by waiting on an identical in-flight cell", s.mSingleflightShared.Load())
	s.admitMu.Lock()
	queued := s.queued
	s.admitMu.Unlock()
	add("server.queued_cells", "admitted cells not yet settled", uint64(queued))
	s.jobsMu.Lock()
	add("server.jobs", "sweep jobs accepted", s.nextJob.Load())
	s.jobsMu.Unlock()
	if s.results != nil {
		st := s.results.stats()
		add("resultcache.hits", "cells served from the result cache", st.Hits)
		add("resultcache.misses", "result cache lookups that missed", st.Misses)
		add("resultcache.evictions", "reports evicted by the byte-budget LRU", st.Evictions)
		add("resultcache.entries", "resident cached reports", uint64(st.Entries))
		add("resultcache.bytes_live", "resident cached report bytes", uint64(st.BytesLive))
	}
	if s.traces != nil {
		st := s.traces.Stats()
		add("tracecache.hits", "runs served from a present or in-flight recording", st.Hits)
		add("tracecache.records", "trace recordings started", st.Records)
		add("tracecache.record_failures", "trace recordings that failed", st.RecordFailures)
		add("tracecache.evictions", "recordings evicted by the byte-budget LRU", st.Evictions)
		add("tracecache.entries", "resident recordings", uint64(st.Entries))
		add("tracecache.bytes_live", "resident recording bytes", uint64(st.BytesLive))
	}
	// The daemon's own memory, read on each scrape.
	inuse, goal := heapFigures()
	add("go.heap_inuse_bytes", "bytes in in-use heap spans", inuse)
	add("go.heap_goal_bytes", "heap size at which the next garbage collection starts", goal)
	if rss, ok := maxRSS(); ok {
		add("process.max_rss_bytes", "peak resident set size of the process", rss)
	}
	s.latMu.Lock()
	lats := make([]*metrics.LatencyHistogram, 0, len(s.routeLat))
	for _, h := range s.routeLat {
		lats = append(lats, h)
	}
	s.latMu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i].Labels < lats[j].Labels })
	reg.AddLatency(lats...)
	return reg
}

// handleMetrics serves the registry. The default is the Prometheus text
// exposition format (scrapeable); ?format=json serves the structured
// snapshot and ?format=text the human-aligned tables.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.metricsRegistry()
	switch r.URL.Query().Get("format") {
	case "json":
		writeJSON(w, http.StatusOK, reg.Snapshot())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteText(w)
	default:
		w.Header().Set("Content-Type", metrics.ExpositionContentType)
		reg.WritePrometheus(w)
	}
}
