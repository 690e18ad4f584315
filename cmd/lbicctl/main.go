// Command lbicctl is the operator's console for lbicd. It submits or
// attaches to sweep jobs and watches them live, exports a job's span trace,
// and checks server health:
//
//	lbicctl top -bench compress,li -ports bank-4,lbic-4x2 -insts 500000
//	lbicctl top -job sweep-3                 # attach to a running job
//	lbicctl trace -job sweep-3 -o sweep3.trace.json   # chrome://tracing
//	lbicctl trace -job sweep-3 -format jsonl -o sweep3.jsonl
//	lbicctl health
//
// top renders a live two-line status (cells done, failures, cache-hit rate,
// and p50/p95/p99 server-side cell latency) when stdout is a terminal, and
// one line per finished cell otherwise — so it is pipe- and CI-safe.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"lbic"
	"lbic/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "top":
		err = cmdTop(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "health":
		err = cmdHealth(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lbicctl: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbicctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: lbicctl <command> [flags]

commands:
  top     submit a sweep (or attach with -job) and watch it live
  trace   export a job's span trace (chrome://tracing or JSONL)
  health  print the server's health and build identity

run "lbicctl <command> -h" for the command's flags
`)
}

// signalContext returns a context canceled on SIGINT/SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8329", "lbicd base URL")
		jobID  = fs.String("job", "", "attach to this existing job instead of submitting a sweep")
		bench  = fs.String("bench", "", "comma-separated benchmarks to sweep (empty = all)")
		ports  = fs.String("ports", "bank-4,lbic-4x2", "comma-separated port organizations")
		insts  = fs.Uint64("insts", 1_000_000, "per-cell instruction budget")
	)
	fs.Parse(args)
	ctx, stop := signalContext()
	defer stop()
	c := client.New(*server)

	id := *jobID
	if id == "" {
		req := client.SweepRequest{Insts: *insts}
		if *bench != "" {
			req.Benchmarks = splitList(*bench)
		}
		for _, p := range splitList(*ports) {
			req.Ports = append(req.Ports, client.Port(p))
		}
		st, err := c.Sweep(ctx, req)
		if err != nil {
			return err
		}
		id = st.ID
		fmt.Printf("submitted job %s (%d cells)\n", id, st.Total)
	}

	st, err := c.Job(ctx, id)
	if err != nil {
		return err
	}
	mon := newMonitor(os.Stdout, id, st.Total)
	if err := c.StreamSSE(ctx, id, mon.observe); err != nil {
		return err
	}
	mon.finish()
	if mon.failed > 0 {
		return fmt.Errorf("job %s finished with %d failed cells", id, mon.failed)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8329", "lbicd base URL")
		jobID  = fs.String("job", "", "job whose trace to export (required)")
		out    = fs.String("o", "", "output file (default <job>.trace.json, - for stdout)")
		format = fs.String("format", "chrome", "output format: chrome | jsonl")
	)
	fs.Parse(args)
	if *jobID == "" {
		return fmt.Errorf("trace: -job is required")
	}
	ctx, stop := signalContext()
	defer stop()
	c := client.New(*server)
	h, spans, err := c.JobTrace(ctx, *jobID)
	if err != nil {
		return err
	}

	path := *out
	if path == "" {
		path = *jobID + ".trace.json"
		if *format == "jsonl" {
			path = *jobID + ".trace.jsonl"
		}
	}
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "chrome":
		err = lbic.WriteChromeTrace(w, h.Name, spans)
	case "jsonl":
		err = lbic.WriteTraceJSONL(w, h.Name, h.EpochUnixNS, spans)
	default:
		return fmt.Errorf("trace: unknown -format %q (want chrome or jsonl)", *format)
	}
	if err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(spans), path)
	}
	return nil
}

func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8329", "lbicd base URL")
	fs.Parse(args)
	ctx, stop := signalContext()
	defer stop()
	h, err := client.New(*server).Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("status:   %s\n", h.Status)
	fmt.Printf("uptime:   %s\n", time.Duration(h.UptimeSeconds*float64(time.Second)).Round(time.Second))
	fmt.Printf("go:       %s\n", h.GoVersion)
	fmt.Printf("module:   %s %s\n", h.Module, h.Version)
	if h.Revision != "" {
		fmt.Printf("revision: %s\n", h.Revision)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// monitor accumulates stream events and renders progress: a live redrawn
// block on a terminal, one line per cell otherwise.
type monitor struct {
	w       io.Writer
	tty     bool
	id      string
	total   int
	done    int
	failed  int
	cached  int
	elapsed []time.Duration // server-side per-cell wall time, sorted on demand
	last    string
	drawn   int // lines currently on screen (tty mode)
}

func newMonitor(w *os.File, id string, total int) *monitor {
	tty := false
	if fi, err := w.Stat(); err == nil {
		tty = fi.Mode()&os.ModeCharDevice != 0
	}
	return &monitor{w: w, tty: tty, id: id, total: total}
}

func (m *monitor) observe(ev client.StreamEvent) error {
	switch ev.Type {
	case "cell":
		cr := ev.Cell
		m.done++
		if cr.Error != "" {
			m.failed++
		}
		if cr.Cached {
			m.cached++
		}
		if cr.ElapsedNS > 0 {
			m.elapsed = append(m.elapsed, time.Duration(cr.ElapsedNS))
		}
		state := "miss"
		if cr.Cached {
			state = "cached"
		}
		if cr.Error != "" {
			state = "FAILED: " + cr.Error
		}
		m.last = fmt.Sprintf("%s  (%s, %s)", cr.Key, state, time.Duration(cr.ElapsedNS).Round(time.Microsecond))
		m.render()
	case "done":
		if ev.Status != nil {
			m.failed = ev.Status.Failed
		}
	}
	return nil
}

func (m *monitor) quantile(q float64) time.Duration {
	if len(m.elapsed) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), m.elapsed...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

func (m *monitor) statusLines() []string {
	hitRate := 0.0
	if m.done > 0 {
		hitRate = 100 * float64(m.cached) / float64(m.done)
	}
	bar := progressBar(m.done, m.total, 30)
	return []string{
		fmt.Sprintf("job %s  %s %d/%d done  %d failed  %d cached (%.1f%% hit)",
			m.id, bar, m.done, m.total, m.failed, m.cached, hitRate),
		fmt.Sprintf("cell latency  p50 %s  p95 %s  p99 %s",
			m.quantile(0.50).Round(time.Microsecond),
			m.quantile(0.95).Round(time.Microsecond),
			m.quantile(0.99).Round(time.Microsecond)),
		"last: " + m.last,
	}
}

func progressBar(done, total, width int) string {
	if total <= 0 {
		return ""
	}
	fill := done * width / total
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}

func (m *monitor) render() {
	if !m.tty {
		fmt.Fprintf(m.w, "[%d/%d] %s\n", m.done, m.total, m.last)
		return
	}
	// Redraw in place: move up over the previous block, clearing each line.
	if m.drawn > 0 {
		fmt.Fprintf(m.w, "\033[%dA", m.drawn)
	}
	lines := m.statusLines()
	for _, l := range lines {
		fmt.Fprintf(m.w, "\033[2K%s\n", l)
	}
	m.drawn = len(lines)
}

// finish prints the closing summary (the live block already shows it on a
// terminal; pipes get one final line).
func (m *monitor) finish() {
	if m.tty {
		return
	}
	for _, l := range m.statusLines()[:2] {
		fmt.Fprintln(m.w, l)
	}
}
