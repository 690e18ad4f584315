// Package metrics provides the simulator's observability primitives:
// monotonic counters, fixed-bucket integer histograms, and per-cycle
// occupancy gauges, collected into an ordered Registry that exports as
// aligned text (via internal/stats tables), a JSON Snapshot, or Prometheus
// exposition.
//
// The hot layers (cpu, cache, ports, core) own their metric objects
// directly — Observe and Sample are plain slice/field updates with no
// locking or interface dispatch — and a run's Registry adopts them at
// configuration time, so snapshotting at the end of a run is free of
// double counting.
package metrics

import (
	"fmt"
	"io"

	"lbic/internal/stats"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	Name string
	Help string
	v    uint64
}

// NewCounter returns a named counter starting at zero.
func NewCounter(name, help string) *Counter {
	return &Counter{Name: name, Help: help}
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Histogram counts observations of small non-negative integers in fixed
// buckets [0, size): bucket i counts observations of value i, the last
// bucket absorbs larger values, and negatives clamp to bucket zero. This
// fits everything the simulator distributes over — bank indices, grant
// counts per cycle, combining widths, queue occupancies — without the
// boundary configuration of a general-purpose histogram.
type Histogram struct {
	Name string
	Help string
	// Label names what a bucket index means ("bank", "width", "grants");
	// it prefixes bucket rows in rendered tables.
	Label string
	// BucketNames optionally names each bucket (e.g. CPI stall causes);
	// when set it overrides Label in tables and is carried in snapshots.
	BucketNames []string

	buckets []uint64
	count   uint64
	sum     uint64
}

// NewHistogram returns a histogram with size buckets for values 0..size-1.
func NewHistogram(name, help, label string, size int) *Histogram {
	if size < 1 {
		size = 1
	}
	return &Histogram{Name: name, Help: help, Label: label, buckets: make([]uint64, size)}
}

// Observe records one observation of v.
func (h *Histogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n observations of v.
func (h *Histogram) ObserveN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] += n
	h.count += n
	h.sum += uint64(v) * n
}

// Buckets returns the bucket counts (the live slice; callers must not
// modify it).
func (h *Histogram) Buckets() []uint64 { return h.buckets }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average observed value (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Gauge samples a level once per cycle (an occupancy: RUU entries in use,
// MSHRs live, store-buffer depth) and keeps the summary a run report needs:
// sample count, sum, and maximum.
type Gauge struct {
	Name string
	Help string

	samples uint64
	sum     uint64
	max     uint64
}

// NewGauge returns a named gauge with no samples.
func NewGauge(name, help string) *Gauge {
	return &Gauge{Name: name, Help: help}
}

// Sample records the level for one cycle.
func (g *Gauge) Sample(v uint64) {
	g.samples++
	g.sum += v
	if v > g.max {
		g.max = v
	}
}

// Samples returns the number of recorded samples.
func (g *Gauge) Samples() uint64 { return g.samples }

// Max returns the highest sampled level.
func (g *Gauge) Max() uint64 { return g.max }

// Mean returns the average sampled level (0 with no samples).
func (g *Gauge) Mean() float64 {
	if g.samples == 0 {
		return 0
	}
	return float64(g.sum) / float64(g.samples)
}

// Registry holds a run's metrics in registration order.
type Registry struct {
	counters   []*Counter
	histograms []*Histogram
	gauges     []*Gauge
	latencies  []*LatencyHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddCounter adopts existing counters.
func (r *Registry) AddCounter(cs ...*Counter) { r.counters = append(r.counters, cs...) }

// AddHistogram adopts existing histograms.
func (r *Registry) AddHistogram(hs ...*Histogram) { r.histograms = append(r.histograms, hs...) }

// AddGauge adopts existing gauges.
func (r *Registry) AddGauge(gs ...*Gauge) { r.gauges = append(r.gauges, gs...) }

// Counter creates and registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter(name, help)
	r.AddCounter(c)
	return c
}

// Histogram creates and registers a histogram.
func (r *Registry) Histogram(name, help, label string, size int) *Histogram {
	h := NewHistogram(name, help, label, size)
	r.AddHistogram(h)
	return h
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := NewGauge(name, help)
	r.AddGauge(g)
	return g
}

// AddLatency adopts existing latency histograms.
func (r *Registry) AddLatency(hs ...*LatencyHistogram) { r.latencies = append(r.latencies, hs...) }

// Latency creates and registers a latency histogram (nil bounds selects
// DefaultLatencyBounds).
func (r *Registry) Latency(name, help, labels string, bounds []float64) *LatencyHistogram {
	h := NewLatencyHistogram(name, help, labels, bounds)
	r.AddLatency(h)
	return h
}

// FindHistogram returns the registered histogram with the given name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	for _, h := range r.histograms {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// CounterSnapshot is a counter's exportable state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value uint64 `json:"value"`
}

// HistogramSnapshot is a histogram's exportable state.
type HistogramSnapshot struct {
	Name        string   `json:"name"`
	Help        string   `json:"help,omitempty"`
	Label       string   `json:"label,omitempty"`
	BucketNames []string `json:"bucket_names,omitempty"`
	Buckets     []uint64 `json:"buckets"`
	Count       uint64   `json:"count"`
	Sum         uint64   `json:"sum"`
}

// GaugeSnapshot is a gauge's exportable state.
type GaugeSnapshot struct {
	Name    string  `json:"name"`
	Help    string  `json:"help,omitempty"`
	Samples uint64  `json:"samples"`
	Mean    float64 `json:"mean"`
	Max     uint64  `json:"max"`
}

// Snapshot is a registry's complete exportable state; it marshals to the
// "metrics" section of a run report and round-trips through JSON.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Latencies  []LatencySnapshot   `json:"latencies,omitempty"`
}

// Snapshot captures the registry's current state. Bucket slices are copied,
// so the snapshot is stable even if the run continues.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.Name, Help: c.Help, Value: c.v})
	}
	for _, h := range r.histograms {
		buckets := make([]uint64, len(h.buckets))
		copy(buckets, h.buckets)
		var names []string
		if len(h.BucketNames) > 0 {
			names = append(names, h.BucketNames...)
		}
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: h.Name, Help: h.Help, Label: h.Label, BucketNames: names,
			Buckets: buckets, Count: h.count, Sum: h.sum,
		})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{
			Name: g.Name, Help: g.Help, Samples: g.samples, Mean: g.Mean(), Max: g.max,
		})
	}
	for _, h := range r.latencies {
		s.Latencies = append(s.Latencies, h.snapshot())
	}
	return s
}

// bucketLabel names bucket i of h for table rendering.
func bucketLabel(h *Histogram, i int) string {
	if i < len(h.BucketNames) {
		return h.BucketNames[i]
	}
	label := h.Label
	if label == "" {
		label = "value"
	}
	return fmt.Sprintf("%s %d", label, i)
}

// Tables renders the registry as stats tables: one for all counters (if
// any), one for all gauges (if any), and one per histogram with per-bucket
// counts and shares. Empty histogram buckets above the highest observed
// value are elided; named buckets always print.
func (r *Registry) Tables() []*stats.Table {
	var out []*stats.Table
	if len(r.counters) > 0 {
		t := stats.NewTable("counters", "counter", "value")
		for _, c := range r.counters {
			t.AddRowf(c.Name, c.v)
		}
		out = append(out, t)
	}
	if len(r.gauges) > 0 {
		t := stats.NewTable("gauges (per-cycle occupancy)", "gauge", "mean", "max", "samples")
		for _, g := range r.gauges {
			t.AddRow(g.Name, fmt.Sprintf("%.2f", g.Mean()), fmt.Sprintf("%d", g.max),
				fmt.Sprintf("%d", g.samples))
		}
		out = append(out, t)
	}
	for _, h := range r.histograms {
		title := h.Name
		if h.Help != "" {
			title = fmt.Sprintf("%s — %s", h.Name, h.Help)
		}
		t := stats.NewTable(title, "bucket", "count", "share")
		top := len(h.buckets) - 1
		if len(h.BucketNames) == 0 {
			for top > 0 && h.buckets[top] == 0 {
				top--
			}
		}
		for i := 0; i <= top; i++ {
			share := 0.0
			if h.count > 0 {
				share = float64(h.buckets[i]) / float64(h.count)
			}
			t.AddRow(bucketLabel(h, i), fmt.Sprintf("%d", h.buckets[i]), stats.FormatPct(share))
		}
		t.AddRow("total", fmt.Sprintf("%d", h.count), "")
		out = append(out, t)
	}
	return out
}

// WriteText renders every table as aligned text.
func (r *Registry) WriteText(w io.Writer) error {
	for _, t := range r.Tables() {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
