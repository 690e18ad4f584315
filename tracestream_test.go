package lbic_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lbic"
)

// rtInsts keeps the full generator × port matrix quick; the identities
// under test hold at any budget.
const rtInsts = 5000

// reportBytes is shared with tracecache_equiv_test.go.

func portCfg(t *testing.T, name string) lbic.Config {
	t.Helper()
	p, err := lbic.ParsePortName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = p
	return cfg
}

// TestGeneratorTraceRoundTrip is the aperture-opening identity: for every
// catalog generator and every port organization family, serializing the
// generator's recording to lbic-trace-stream/v1, reading it back, and
// replaying it produces a run report byte-identical to simulating the
// in-memory stream directly. It also pins the encoding's canonical
// property (re-encode of a decode is byte-identical).
func TestGeneratorTraceRoundTrip(t *testing.T) {
	ports := []string{"true-4", "repl-2", "virt-2", "bank-4", "banksq-4", "mpb-2x2", "lbic-4x2"}
	for _, g := range lbic.Generators() {
		g := g
		t.Run(g.Kind, func(t *testing.T) {
			t.Parallel()
			params := lbic.GenParams{Kind: g.Kind}
			rt, err := lbic.RecordGeneratorTrace(params, rtInsts)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := lbic.WriteTraceStream(&enc, rt); err != nil {
				t.Fatal(err)
			}
			decoded, err := lbic.ReadTraceStream(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Name() != rt.Name() || decoded.Len() != rt.Len() {
				t.Fatalf("decode changed identity: %q/%d vs %q/%d", decoded.Name(), decoded.Len(), rt.Name(), rt.Len())
			}
			var reenc bytes.Buffer
			if err := lbic.WriteTraceStream(&reenc, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), reenc.Bytes()) {
				t.Fatal("re-encoding the decoded stream is not byte-identical")
			}
			for _, pn := range ports {
				pn := pn
				t.Run(pn, func(t *testing.T) {
					t.Parallel()
					cfg := portCfg(t, pn)
					cfg.MaxInsts = rtInsts
					direct, err := lbic.Simulate(context.Background(), lbic.GeneratorSource(params), cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.MaxInsts = 0 // whole trace
					replay, err := lbic.Simulate(context.Background(), lbic.TraceSource(decoded), cfg)
					if err != nil {
						t.Fatal(err)
					}
					d, r := reportBytes(t, direct), reportBytes(t, replay)
					if !bytes.Equal(d, r) {
						t.Errorf("replayed report differs from direct generator report (%d vs %d bytes)", len(r), len(d))
					}
				})
			}
		})
	}
}

// TestBenchmarkTraceRoundTrip pins the same identity for an emulator-backed
// recording: replaying a recorded kernel matches simulating it live.
func TestBenchmarkTraceRoundTrip(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := lbic.RecordBenchmarkTrace(prog, rtInsts)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ValuesElided() {
		t.Fatal("benchmark recording dropped values")
	}
	var enc bytes.Buffer
	if err := lbic.WriteTraceStream(&enc, rt); err != nil {
		t.Fatal(err)
	}
	decoded, err := lbic.ReadTraceStream(&enc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := portCfg(t, "lbic-4x2")
	cfg.MaxInsts = rtInsts
	direct, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInsts = 0
	replay, err := lbic.Simulate(context.Background(), lbic.TraceSource(decoded), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, direct), reportBytes(t, replay)) {
		t.Error("replayed kernel report differs from live simulation")
	}
}

func TestSimulateTraceRejectsVerify(t *testing.T) {
	rt, err := lbic.RecordGeneratorTrace(lbic.GenParams{Kind: "chase"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lbic.DefaultConfig()
	cfg.Verify = true
	if _, err := lbic.Simulate(context.Background(), lbic.TraceSource(rt), cfg); err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Errorf("Verify replay: err = %v, want a Verify rejection", err)
	}
	if _, err := lbic.Simulate(context.Background(), lbic.GeneratorSource(lbic.GenParams{Kind: "chase"}), cfg); err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Errorf("Verify generator: err = %v, want a Verify rejection", err)
	}
}

func TestSimulateGeneratorNeedsBudget(t *testing.T) {
	cfg := lbic.DefaultConfig()
	cfg.MaxInsts = 0
	if _, err := lbic.Simulate(context.Background(), lbic.GeneratorSource(lbic.GenParams{Kind: "zipf"}), cfg); err == nil {
		t.Error("unbounded generator run accepted")
	}
	if _, err := lbic.RecordGeneratorTrace(lbic.GenParams{Kind: "zipf"}, 0); err == nil {
		t.Error("unbounded generator recording accepted")
	}
}
