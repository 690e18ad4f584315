package lbic_test

import (
	"bytes"
	"context"
	"testing"

	"lbic"
)

// equivPorts is every port organization the simulator models; the replay
// equivalence below must hold for each of them.
func equivPorts() []lbic.PortConfig {
	return []lbic.PortConfig{
		lbic.IdealPort(2),
		lbic.ReplicatedPort(2),
		lbic.VirtualPort(2),
		lbic.BankedPort(4),
		lbic.BankedSQPort(4),
		lbic.MultiPortedBanksPort(2, 2),
		lbic.LBICPort(4, 2),
		{Kind: lbic.LBIC, Banks: 4, LinePorts: 2, Greedy: true},
	}
}

// reportBytes renders a result's full machine-readable report — every
// counter, histogram, and gauge — for byte-level comparison. The trace-cache
// snapshot is cleared first: it describes the shared cache, not the run, and
// legitimately differs between a live and a replayed run.
func reportBytes(t *testing.T, res lbic.Result) []byte {
	t.Helper()
	res.TraceCache = nil
	var buf bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceReplayMatchesLive is the trace cache's load-bearing property: a
// recorded-then-replayed stream must drive the simulator to a byte-identical
// report — cycles, stall stack, histograms, gauges, port statistics — as the
// live emulator, for every port organization. The subtests run in parallel
// against one shared cache, so under -race this also exercises the
// singleflight recording path.
func TestTraceReplayMatchesLive(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 30_000
	tc := lbic.NewTraceCache(0)
	orgs := equivPorts()
	for _, port := range orgs {
		t.Run(port.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := lbic.DefaultConfig()
			cfg.Port = port
			cfg.MaxInsts = insts
			live, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace = tc
			recorded, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if recorded.TraceCache == nil || replayed.TraceCache == nil {
				t.Error("cached runs carry no trace-cache snapshot")
			}
			want := reportBytes(t, live)
			if got := reportBytes(t, recorded); !bytes.Equal(want, got) {
				t.Errorf("first cached run diverges from live run:\nlive:   %s\ncached: %s",
					firstDiff(want, got), firstDiff(got, want))
			}
			if got := reportBytes(t, replayed); !bytes.Equal(want, got) {
				t.Errorf("replayed run diverges from live run:\nlive:     %s\nreplayed: %s",
					firstDiff(want, got), firstDiff(got, want))
			}
		})
	}
	t.Cleanup(func() {
		// One program at one budget: exactly one recording, every other
		// request a hit, no matter how the parallel subtests interleaved.
		s := tc.Stats()
		if s.Records != 1 {
			t.Errorf("cache recorded %d times, want 1", s.Records)
		}
		if want := uint64(2*len(orgs) - 1); s.Hits != want {
			t.Errorf("cache served %d hits, want %d", s.Hits, want)
		}
		if s.RecordFailures != 0 || s.Evictions != 0 {
			t.Errorf("unexpected failures/evictions: %+v", s)
		}
	})
}

// firstDiff returns a window of a around the first byte where a and b differ.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 40
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestTraceReplayVerifiedRunsStayLive: the trace cache records without
// memory values, and Config.Verify needs them and the live machine's final
// memory, so a verified run must bypass even a warm cache and still pass its
// oracle, on every kernel.
func TestTraceReplayVerifiedRunsStayLive(t *testing.T) {
	tc := lbic.NewTraceCache(0)
	for _, name := range lbic.BenchmarkNames() {
		prog, err := lbic.BuildBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := lbic.DefaultConfig()
		cfg.Port = lbic.LBICPort(4, 2)
		cfg.MaxInsts = 10_000
		cfg.Trace = tc
		if _, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg); err != nil {
			t.Fatal(err) // records the kernel's trace
		}
		before := tc.Stats()
		cfg.Verify = true
		res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Verify == nil {
			t.Fatalf("%s: verified run carries no verification summary", name)
		}
		if res.TraceCache != nil {
			t.Errorf("%s: verified run replayed from the trace cache", name)
		}
		if after := tc.Stats(); after.Records != before.Records || after.Hits != before.Hits {
			t.Errorf("%s: verified run touched the trace cache: %+v, then %+v", name, before, after)
		}
	}
}
