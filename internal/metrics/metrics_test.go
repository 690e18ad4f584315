package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	c := NewCounter("events", "test events")
	if c.Value() != 0 {
		t.Fatalf("new counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram("widths", "", "width", 4)
	h.Observe(0)
	h.Observe(2)
	h.Observe(3)
	h.Observe(9)  // clamps into the last bucket
	h.Observe(-1) // clamps into bucket 0
	want := []uint64{2, 0, 1, 2}
	if !reflect.DeepEqual(h.Buckets(), want) {
		t.Fatalf("buckets = %v, want %v", h.Buckets(), want)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	// Sum uses the clamped values: 0+2+3+3+0 = 8.
	if h.Sum() != 8 {
		t.Fatalf("sum = %d, want 8", h.Sum())
	}
	if got, want := h.Mean(), 8.0/5.0; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistogramObserveN(t *testing.T) {
	h := NewHistogram("grants", "", "grants", 3)
	h.ObserveN(1, 10)
	h.ObserveN(2, 5)
	if h.Count() != 15 || h.Sum() != 20 {
		t.Fatalf("count/sum = %d/%d, want 15/20", h.Count(), h.Sum())
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge("occupancy", "")
	if g.Mean() != 0 {
		t.Fatalf("empty gauge mean = %v", g.Mean())
	}
	g.Sample(2)
	g.Sample(4)
	g.Sample(0)
	if g.Samples() != 3 || g.Max() != 4 {
		t.Fatalf("samples/max = %d/%d, want 3/4", g.Samples(), g.Max())
	}
	if g.Mean() != 2 {
		t.Fatalf("mean = %v, want 2", g.Mean())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu.grants", "port grants")
	c.Add(42)
	h := r.Histogram("port.bank_accesses", "grants per bank", "bank", 4)
	h.BucketNames = []string{"bank 0", "bank 1", "bank 2", "bank 3"}
	h.ObserveN(0, 7)
	h.ObserveN(3, 2)
	g := r.Gauge("mem.mshr_occupancy", "live MSHRs")
	g.Sample(3)
	g.Sample(5)

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
	if back.Histograms[0].Count != 9 || back.Histograms[0].Sum != 6 {
		t.Fatalf("histogram snapshot count/sum = %d/%d, want 9/6",
			back.Histograms[0].Count, back.Histograms[0].Sum)
	}
}

func TestSnapshotIsStable(t *testing.T) {
	h := NewHistogram("h", "", "v", 2)
	h.Observe(1)
	r := NewRegistry()
	r.AddHistogram(h)
	snap := r.Snapshot()
	h.Observe(1) // must not alter the earlier snapshot
	if snap.Histograms[0].Buckets[1] != 1 {
		t.Fatalf("snapshot mutated by later observation: %v", snap.Histograms[0].Buckets)
	}
}

func TestTablesRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Add(1)
	h := r.Histogram("cpi_stack", "cycles by cause", "", 3)
	h.BucketNames = []string{"committing", "waiting-on-miss", "drained"}
	h.ObserveN(0, 10)
	h.ObserveN(1, 5)
	r.Gauge("ruu", "").Sample(7)

	tables := r.Tables()
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"committing", "waiting-on-miss", "66.7%", "cpi_stack", "ruu"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramElidesEmptyTail(t *testing.T) {
	h := NewHistogram("grants", "", "grants", 64)
	h.Observe(0)
	h.Observe(2)
	r := NewRegistry()
	r.AddHistogram(h)
	tables := r.Tables()
	// buckets 0..2 plus the total row
	if got := len(tables[0].Rows); got != 4 {
		t.Fatalf("got %d rows, want 4 (empty tail elided)", got)
	}
}
