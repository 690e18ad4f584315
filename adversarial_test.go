package lbic_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbic"
	"lbic/internal/advsearch"
)

// loadAdversarialMetas discovers the checked-in adversarial workload corpus
// (testdata/adversarial/*.meta.json).
func loadAdversarialMetas(t *testing.T) []advsearch.Meta {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "adversarial", "*.meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]advsearch.Meta, len(paths))
	for i, p := range paths {
		if metas[i], err = advsearch.LoadMeta(p); err != nil {
			t.Fatal(err)
		}
	}
	return metas
}

// TestAdversarialCorpusPresent pins the acceptance floor: the repository
// carries at least two search-discovered adversarial streams.
func TestAdversarialCorpusPresent(t *testing.T) {
	if n := len(loadAdversarialMetas(t)); n < 2 {
		t.Fatalf("adversarial corpus has %d workloads, want >= 2", n)
	}
}

// TestAdversarialReplayByteIdentical is the permanent-regression contract:
// replaying each checked-in .lbictrace on its target port reproduces the
// stored .report.json byte-for-byte, and the stream itself is re-derivable
// from the recorded generator parameters. Any drift in the generators, the
// trace codec, the timing core, or the report serialization fails here.
func TestAdversarialReplayByteIdentical(t *testing.T) {
	for _, m := range loadAdversarialMetas(t) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join("testdata", "adversarial")
			raw, err := os.ReadFile(filepath.Join(dir, m.Name+".lbictrace"))
			if err != nil {
				t.Fatal(err)
			}
			rt, err := lbic.ReadTraceStream(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Name() != m.Params.Key() {
				t.Errorf("stream name %q != params key %q", rt.Name(), m.Params.Key())
			}

			// Provenance: the parameters in the meta record regenerate the
			// checked-in stream exactly.
			regen, err := lbic.RecordGeneratorTrace(m.Params, m.Insts)
			if err != nil {
				t.Fatal(err)
			}
			var reenc bytes.Buffer
			if err := lbic.WriteTraceStream(&reenc, regen); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, reenc.Bytes()) {
				t.Error("re-generating from meta params does not reproduce the checked-in stream")
			}

			// Regression: replaying the stream reproduces the stored report.
			port, err := lbic.ParsePortName(m.Port)
			if err != nil {
				t.Fatal(err)
			}
			cfg := lbic.DefaultConfig()
			cfg.Port = port
			cfg.MaxInsts = 0 // whole trace
			res, err := lbic.Simulate(context.Background(), lbic.TraceSource(rt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, m.Name+".report.json"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := lbic.NewReport(res).WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("replayed report differs from stored %s.report.json (%d vs %d bytes); regenerate deliberately with scripts/advsearch",
					m.Name, got.Len(), len(want))
			}
			if rate := res.PortConflictRate(); rate < m.Score.ConflictRate*0.999 || rate > m.Score.ConflictRate*1.001 {
				t.Errorf("replayed conflict rate %.4f drifted from minted score %.4f", rate, m.Score.ConflictRate)
			}
		})
	}
}

// TestAdversarialBeatsEveryKernel is the discovery claim: each minted
// stream's same-bank conflict rate on its target organization exceeds that
// of every synthetic SPEC95 kernel at the same instruction budget. The
// search genuinely found pressure the paper's workload suite does not
// exercise.
func TestAdversarialBeatsEveryKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("10-kernel sweep per artifact in -short mode")
	}
	for _, m := range loadAdversarialMetas(t) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			port, err := lbic.ParsePortName(m.Port)
			if err != nil {
				t.Fatal(err)
			}
			advRate := m.Score.ConflictRate
			if advRate <= 0 {
				t.Fatalf("minted score has no conflicts (rate %f)", advRate)
			}
			for _, name := range lbic.BenchmarkNames() {
				prog, err := lbic.BuildBenchmark(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := lbic.DefaultConfig()
				cfg.Port = port
				cfg.MaxInsts = m.Insts
				res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rate := res.PortConflictRate(); rate >= advRate {
					t.Errorf("kernel %s conflict rate %.4f >= adversarial %.4f on %s — the stream is not adversarial",
						name, rate, advRate, m.Port)
				}
			}
		})
	}
}

// TestAdversarialMetaWellFormed keeps the corpus self-consistent: schema,
// ports, and params all parse, and the artifact triple is complete.
func TestAdversarialMetaWellFormed(t *testing.T) {
	for _, m := range loadAdversarialMetas(t) {
		if !strings.HasPrefix(m.Schema, "lbic-adversarial-meta/") {
			t.Errorf("%s: schema %q", m.Name, m.Schema)
		}
		if _, err := lbic.ParsePortName(m.Port); err != nil {
			t.Errorf("%s: port: %v", m.Name, err)
		}
		if _, err := m.Params.Resolve(); err != nil {
			t.Errorf("%s: params: %v", m.Name, err)
		}
		if m.Insts == 0 {
			t.Errorf("%s: zero insts", m.Name)
		}
		for _, suffix := range []string{".lbictrace", ".report.json"} {
			if _, err := os.Stat(filepath.Join("testdata", "adversarial", m.Name+suffix)); err != nil {
				t.Errorf("%s: missing artifact: %v", m.Name, err)
			}
		}
	}
}
