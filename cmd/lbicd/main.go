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
	"syscall"
	"time"

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
		traceCacheMB = flag.Int64("trace-cache-mb", 256, "trace cache budget in MiB (-1 = disable)")
		resultMB     = flag.Int64("result-cache-mb", 64, "result cache budget in MiB (-1 = disable)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful drain deadline on SIGTERM")
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
	srv := server.New(server.Options{
		MaxParallel:      *jobs,
		QueueLimit:       *queueLimit,
		CellTimeout:      cellT,
		TraceCacheBytes:  mb(*traceCacheMB),
		ResultCacheBytes: mb(*resultMB),
		Log:              log,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
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
