package lbic

import (
	"encoding/json"
	"fmt"
	"io"

	"lbic/internal/cache"
	"lbic/internal/cpu"
	"lbic/internal/metrics"
	"lbic/internal/ports"
	"lbic/internal/stats"
	"lbic/internal/trace"
)

// Observability re-exports, so applications and the commands need only this
// package.
type (
	// MetricsRegistry holds a run's histograms and gauges beyond the
	// aggregate CPU/Mem counters; see Result.Metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a registry's JSON-exportable state.
	MetricsSnapshot = metrics.Snapshot
	// Event is one structured trace event (cycle, kind, seq, bank, line,
	// cause).
	Event = trace.Event
	// EventSink receives structured trace events; see Config.Events.
	EventSink = trace.EventSink
	// JSONLEventSink writes events as JSON Lines; check Err after the run.
	JSONLEventSink = trace.JSONLSink
	// Table is a renderable results table (text, Markdown, JSON).
	Table = stats.Table
	// StallCause indexes CPUStats.StallCycles, the CPI stall stack.
	StallCause = cpu.StallCause
)

// NewJSONLEventSink returns an event sink writing one JSON object per line
// to w, for Config.Events.
func NewJSONLEventSink(w io.Writer) *JSONLEventSink { return trace.NewJSONLSink(w) }

// StallCauseNames returns the CPI stall stack bucket names in
// CPUStats.StallCycles order.
func StallCauseNames() []string { return cpu.StallCauseNames() }

// ReportSchema identifies the run-report JSON layout.
const ReportSchema = "lbic-run-report/v1"

// ReportPort describes the port organization of a run report.
type ReportPort struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	PeakWidth int    `json:"peak_width"`
	Width     int    `json:"width,omitempty"`
	Banks     int    `json:"banks,omitempty"`
	LinePorts int    `json:"line_ports,omitempty"`
	Selector  string `json:"selector,omitempty"`
	Greedy    bool   `json:"greedy,omitempty"`
	// ParityBanks and Speculative describe Coded runs.
	ParityBanks int  `json:"parity_banks,omitempty"`
	Speculative bool `json:"speculative,omitempty"`
	// Label distinguishes custom arbiters (see CustomPort).
	Label string `json:"label,omitempty"`
}

// StallBucket is one named entry of the CPI stall stack.
type StallBucket struct {
	Cause  string `json:"cause"`
	Cycles uint64 `json:"cycles"`
}

// Report is the complete machine-readable record of one run — the document
// `lbicsim -json` writes. It carries the configuration, the aggregate CPU
// and memory counters, the CPI stall stack (buckets sum to Cycles), and
// every histogram and gauge of the run's metrics registry, so performance
// work can diff whole runs (see scripts/reportdiff) instead of eyeballing
// stdout.
type Report struct {
	Schema    string     `json:"schema"`
	Benchmark string     `json:"benchmark"`
	Port      ReportPort `json:"port"`
	Insts     uint64     `json:"insts"`
	Cycles    uint64     `json:"cycles"`
	IPC       float64    `json:"ipc"`

	CPIStack []StallBucket `json:"cpi_stack"`
	CPU      CPUStats      `json:"cpu"`
	Mem      MemStats      `json:"mem"`
	// LBIC carries combining statistics for LBIC runs.
	LBIC *LBICStats `json:"lbic,omitempty"`
	// BankConflicts carries the aggregate conflict count for Banked runs.
	BankConflicts uint64 `json:"bank_conflicts,omitempty"`
	// Coded carries reconstruction and code-update statistics for Coded runs.
	Coded   *CodedStats     `json:"coded,omitempty"`
	Metrics MetricsSnapshot `json:"metrics"`
	// TraceCache carries the shared trace cache's counters for runs that
	// replayed a recorded trace (see Config.Trace).
	TraceCache *TraceCacheStats `json:"trace_cache,omitempty"`
}

// PeakWidth returns the organization's maximum accesses per cycle,
// registry-derived.
func (p PortConfig) PeakWidth() int {
	if o, ok := portOrgFor(p.Kind); ok {
		return o.peak(p)
	}
	return 0
}

// reportPort flattens a PortConfig for the report, registry-derived.
func reportPort(p PortConfig) ReportPort {
	rp := ReportPort{Name: p.Name(), Kind: p.Kind.String(), PeakWidth: p.PeakWidth()}
	if o, ok := portOrgFor(p.Kind); ok && o.report != nil {
		o.report(p, &rp)
	}
	return rp
}

// CPIStack returns the run's stall stack as named buckets in StallCause
// order; the cycle counts sum to Cycles.
func (r Result) CPIStack() []StallBucket {
	names := cpu.StallCauseNames()
	out := make([]StallBucket, len(names))
	for i, name := range names {
		out[i] = StallBucket{Cause: name, Cycles: r.CPU.StallCycles[i]}
	}
	return out
}

// NewReport assembles the machine-readable report of a finished run.
func NewReport(res Result) Report {
	rep := Report{
		Schema:        ReportSchema,
		Benchmark:     res.Benchmark,
		Port:          reportPort(res.Port),
		Insts:         res.Insts,
		Cycles:        res.Cycles,
		IPC:           res.IPC,
		CPIStack:      res.CPIStack(),
		CPU:           res.CPU,
		Mem:           res.Mem,
		LBIC:          res.LBIC,
		BankConflicts: res.BankConflicts,
		Coded:         res.Coded,
		TraceCache:    res.TraceCache,
	}
	if res.Metrics != nil {
		rep.Metrics = res.Metrics.Snapshot()
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON (or `lbicsim -json`).
func ReadReport(rd io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("lbic: parsing run report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return Report{}, fmt.Errorf("lbic: unknown report schema %q (want %q)", rep.Schema, ReportSchema)
	}
	return rep, nil
}

// buildMetricsRegistry collects the run's live metric objects and derived
// histograms into one registry, in stable report order.
func buildMetricsRegistry(c *cpu.Core, hier *cache.Hierarchy, arb ports.Arbiter, st cpu.Stats) *metrics.Registry {
	reg := metrics.NewRegistry()

	cpi := reg.Histogram("cpu.cpi_stack",
		"every cycle attributed to the head-of-window stall cause", "", cpu.NumStallCauses)
	cpi.BucketNames = cpu.StallCauseNames()
	for cause, n := range st.StallCycles {
		cpi.ObserveN(cause, n)
	}

	reg.AddHistogram(c.GrantsPerCycle())
	reg.AddGauge(c.OccupancyGauges()...)
	reg.AddHistogram(hier.MSHROccupancy())

	if a, ok := arb.(*ports.Banks); ok {
		addHistogram(reg, "port.bank_accesses", "grants per bank (load balance across banks)",
			"bank", a.BankAccesses())
		addHistogram(reg, "port.bank_conflicts", "requests stalled per bank (the §3 conflict characterization)",
			"bank", a.BankConflicts())
	}
	return reg
}

// addHistogram adds a histogram with one bucket per element of vec, in
// order, and returns it.
func addHistogram(reg *metrics.Registry, name, help, label string, vec []uint64) *metrics.Histogram {
	h := reg.Histogram(name, help, label, len(vec))
	for i, n := range vec {
		h.ObserveN(i, n)
	}
	return h
}

// CPUStatsTable renders the processor counters as a table — the `lbicsim
// -v` view.
func CPUStatsTable(s CPUStats) *Table {
	t := stats.NewTable("cpu statistics", "counter", "value")
	t.AddRowf("cycles", s.Cycles)
	t.AddRowf("dispatched", s.Dispatched)
	t.AddRowf("issued", s.Issued)
	t.AddRowf("committed", s.Committed)
	t.AddRow("ipc", stats.FormatIPC(s.IPC()))
	t.AddRowf("loads", s.Loads)
	t.AddRowf("stores", s.Stores)
	t.AddRowf("lsq forwards", s.Forwards)
	t.AddRowf("forward waits", s.ForwardWaits)
	t.AddRowf("ordering stalls", s.OrderingStalls)
	t.AddRowf("port grants", s.PortGrants)
	t.AddRowf("port grants blocked (MSHR)", s.PortBlocked)
	t.AddRowf("dispatch stalls (RUU full)", s.DispatchStallRUU)
	t.AddRowf("dispatch stalls (LSQ full)", s.DispatchStallLSQ)
	t.AddRowf("commit stalls (store buffer)", s.CommitStallStoreBuf)
	for cl, n := range s.IssuedByClass {
		if n > 0 {
			t.AddRowf(fmt.Sprintf("issued %s", FUClass(cl)), n)
		}
	}
	return t
}

// MemStatsTable renders the memory-hierarchy counters as a table.
func MemStatsTable(s MemStats) *Table {
	t := stats.NewTable("memory statistics", "counter", "value")
	t.AddRowf("L1 accesses", s.Accesses)
	t.AddRowf("L1 hits", s.Hits)
	t.AddRowf("L1 misses (new)", s.MissesNew)
	t.AddRowf("L1 misses (merged)", s.MissesMerge)
	t.AddRow("L1 miss rate", fmt.Sprintf("%.4f", s.MissRate()))
	t.AddRowf("blocked (MSHR/target full)", s.Blocked)
	t.AddRowf("L2 accesses", s.L2Accesses)
	t.AddRowf("L2 misses", s.L2Misses)
	t.AddRowf("writebacks", s.Writebacks)
	t.AddRowf("fills", s.Fills)
	return t
}

// CPIStackTable renders the stall stack with cycle shares.
func CPIStackTable(res Result) *Table {
	t := stats.NewTable("CPI stall stack", "cause", "cycles", "share")
	for _, b := range res.CPIStack() {
		share := 0.0
		if res.Cycles > 0 {
			share = float64(b.Cycles) / float64(res.Cycles)
		}
		t.AddRow(b.Cause, fmt.Sprintf("%d", b.Cycles), stats.FormatPct(share))
	}
	t.AddRowf("total", res.Cycles)
	return t
}
