// Command lbicd serves simulations over HTTP: single runs (/v1/simulate),
// whole sweeps as streamable jobs (/v1/sweep, /v1/jobs/{id}), health and
// metrics endpoints — with one process-wide trace cache and result cache so
// repeated requests replay instead of re-simulating.
//
//	lbicd -addr :8329
//	curl -s localhost:8329/healthz
//	curl -s localhost:8329/metrics          # Prometheus text exposition
//	curl -s -d '{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"lbic-4x2","insts":100000}' \
//	     localhost:8329/v1/simulate
//
// Logs are structured (log/slog, text format) on stderr; -log-json switches
// to JSON. -debug-addr serves net/http/pprof on a separate listener so the
// profiling surface is never exposed on the serving address.
//
// On SIGTERM or SIGINT the server drains gracefully: new requests are
// rejected with 503 while in-flight requests and accepted jobs finish (up
// to -drain-timeout); a second signal aborts immediately.
//
// # Cluster roles
//
// The same binary serves three roles. Standalone (default) runs every cell
// in-process. -worker is the same serving plane, advertised as a cluster
// member via its /healthz capacity fields. -coordinator -workers a,b,c
// consistent-hashes each cell onto the healthy workers, with retry onto a
// different worker, hedged duplicates for stragglers (-hedge-after),
// heartbeat-driven eviction/readmission, an optional content-addressed
// result store (-store-dir), and graceful degradation to in-process
// execution when no worker can serve a cell:
//
//	lbicd -worker -addr :8331
//	lbicd -coordinator -workers localhost:8331,localhost:8332,localhost:8333 \
//	      -store-dir /var/lib/lbicd/store -addr :8329
//
// The -chaos-* flags inject faults on a worker's API routes (never on
// /healthz or /metrics) for resilience drills: -chaos-drop-rate severs
// connections mid-request, -chaos-slow-ms delays responses, and
// -chaos-kill-after SIGKILLs the process after N served simulate calls.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lbic/internal/cluster"
	"lbic/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8329", "listen address")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		jobs         = flag.Int("jobs", 0, "max concurrently executing cells (0 = GOMAXPROCS)")
		queueLimit   = flag.Int("queue", 1024, "max admitted-but-unfinished cells before 429 (-1 = unlimited)")
		cellTimeout  = flag.Duration("cell-timeout", 5*time.Minute, "per-cell deadline (0 = none)")
		retries      = flag.Int("retries", 0, "re-attempts for failed (non-timeout) cells")
		traceCacheMB = flag.Int64("trace-cache-mb", 256, "trace cache budget in MiB (-1 = disable)")
		resultMB     = flag.Int64("result-cache-mb", 64, "result cache budget in MiB (-1 = disable)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful drain deadline on SIGTERM")

		worker      = flag.Bool("worker", false, "serve as a cluster worker (advertises capacity on /healthz)")
		coordinator = flag.Bool("coordinator", false, "serve as a cluster coordinator dispatching cells to -workers")
		workers     = flag.String("workers", "", "comma-separated worker base URLs or host:port pairs (coordinator)")
		storeDir    = flag.String("store-dir", "", "content-addressed result store directory (coordinator; empty = none)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "worker heartbeat interval (coordinator)")
		evictAfter  = flag.Int("evict-after", 3, "consecutive missed heartbeats before a worker is evicted")
		hedgeAfter  = flag.Duration("hedge-after", 0, "duplicate a dispatch onto another worker after this wait (0 = off)")
		rAttempts   = flag.Int("remote-attempts", 3, "dispatch attempts per cell before degrading to local execution")

		chaosKill = flag.Int("chaos-kill-after", 0, "SIGKILL self after serving this many /v1/simulate requests (0 = off)")
		chaosDrop = flag.Float64("chaos-drop-rate", 0, "probability of severing an API request's connection")
		chaosSlow = flag.Int("chaos-slow-ms", 0, "fixed latency in milliseconds injected before each API request")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed for the chaos drop pattern (0 = clock)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	log := slog.New(handler)
	slog.SetDefault(log)

	mb := func(v int64) int64 {
		if v < 0 {
			return -1
		}
		return v << 20
	}
	cellT := *cellTimeout
	if cellT == 0 {
		cellT = -1 // Options maps <0 to "no deadline"; 0 means "default".
	}
	if *worker && *coordinator {
		log.Error("-worker and -coordinator are mutually exclusive")
		os.Exit(2)
	}
	role := "standalone"
	switch {
	case *worker:
		role = "worker"
	case *coordinator:
		role = "coordinator"
	}

	clusterCtx, clusterStop := context.WithCancel(context.Background())
	defer clusterStop()
	var remote server.RemoteExecutor
	if *coordinator {
		var addrs []string
		for _, a := range strings.Split(*workers, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			addrs = append(addrs, a)
		}
		if len(addrs) == 0 {
			log.Error("-coordinator requires -workers host:port,...")
			os.Exit(2)
		}
		pool := cluster.NewPool(addrs, cluster.PoolOptions{
			Interval:   *heartbeat,
			EvictAfter: *evictAfter,
			Log:        log,
		})
		pool.Start(clusterCtx)
		var store *cluster.Store
		if *storeDir != "" {
			var err error
			if store, err = cluster.OpenStore(*storeDir, cluster.Fingerprint()); err != nil {
				log.Error("opening result store", "dir", *storeDir, "err", err)
				os.Exit(1)
			}
		}
		remote = cluster.NewDispatcher(pool, store, cluster.Options{
			Attempts:   *rAttempts,
			HedgeAfter: *hedgeAfter,
			Log:        log,
		})
		log.Info("coordinating", "workers", addrs, "store", *storeDir)
	}

	srv := server.New(server.Options{
		MaxParallel:      *jobs,
		QueueLimit:       *queueLimit,
		CellTimeout:      cellT,
		Retries:          *retries,
		TraceCacheBytes:  mb(*traceCacheMB),
		ResultCacheBytes: mb(*resultMB),
		Log:              log,
		Role:             role,
		Remote:           remote,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	httpHandler := cluster.Chaos(srv.Handler(), cluster.ChaosOptions{
		DropRate:  *chaosDrop,
		Slow:      time.Duration(*chaosSlow) * time.Millisecond,
		KillAfter: *chaosKill,
		Seed:      *chaosSeed,
		Log:       log,
	})
	hs := &http.Server{
		Handler:           httpHandler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Info("listening", "addr", ln.Addr().String())

	if *debugAddr != "" {
		// The pprof import above registers on http.DefaultServeMux; serve
		// only that mux, only here — never on the main listener.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Error("debug listen failed", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		log.Info("debug server listening (pprof)", "addr", dln.Addr().String())
		go func() {
			ds := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug server failed", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		log.Info("draining (in-flight jobs finish; signal again to abort)", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		log.Warn("second signal, aborting")
		cancel()
	}()
	if err := srv.Drain(ctx); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("shutdown", "err", err)
	}
	log.Info("bye")
}
