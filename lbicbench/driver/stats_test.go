package main

import (
	"math"
	"testing"
	"time"
)

// A program that runs exactly as fast as the reference reads the pace
// figures, and one twice as slow reads twice the latencies and half the
// rate, whatever the host's speed during the run.
func TestOpStatsPaced(t *testing.T) {
	w := &workload{tail: 75, pace: pace{p50MS: 100, tailMS: 130, opsPerS: 8}}
	lat := []float64{80, 90, 100, 110, 200}
	for _, host := range []float64{1, 1.6} {
		for _, slower := range []float64{1, 2} {
			var prog, ref side
			for _, v := range lat {
				ref.add(time.Duration(v * host * float64(time.Millisecond)))
				prog.add(time.Duration(v * host * slower * float64(time.Millisecond)))
			}
			r := &result{}
			opStats(r, w, prog, ref)
			want := map[string]float64{"op_ms_p50": 100 * slower, "op_ms_tail": 130 * slower, "ops_per_s": 8 / slower}
			for _, m := range r.metrics {
				if math.Abs(m.value-want[m.name]) > 1e-9*want[m.name] {
					t.Errorf("host %gx slower, program %gx slower: %s = %g, want %g",
						host, slower, m.name, m.value, want[m.name])
				}
			}
		}
	}
}

// A run whose program ops all failed has no latencies: it still reports its
// ops and the metrics it has, and is not correct.
func TestAllOpsFailedStillReports(t *testing.T) {
	w := &workload{tail: 75, pace: pace{p50MS: 100, tailMS: 130, opsPerS: 8}}
	var ref side
	ref.add(100 * time.Millisecond)
	r := &result{attempted: 3, failed: 3, correct: true}
	opStats(r, w, side{}, ref)
	r.add("max_rss_mb", 50, "MiB")
	r.dropUnmeasured()
	if r.correct {
		t.Error("a run without latencies is correct")
	}
	if len(r.metrics) != 1 || r.metrics[0].name != "max_rss_mb" {
		t.Errorf("kept %v, want only max_rss_mb", r.metrics)
	}
}
