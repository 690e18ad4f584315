package lbic_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbic"
)

// adversarialMetaSchema identifies the .meta.json record stored beside each
// artifact in testdata/adversarial.
const adversarialMetaSchema = "lbic-adversarial-meta/v1"

// adversarialMeta is one artifact's .meta.json: the generator parameters,
// port and budget its stream and report derive from, and the score that
// replaying the stream measures.
type adversarialMeta struct {
	Schema string `json:"schema"`
	// Name is the artifact base name; the stream inside the .lbictrace file
	// carries the generator parameter key instead.
	Name   string         `json:"name"`
	Port   string         `json:"port"`
	Insts  uint64         `json:"insts"`
	Params lbic.GenParams `json:"params"`
	Score  struct {
		Conflicts    uint64  `json:"conflicts"`
		Accesses     uint64  `json:"accesses"`
		ConflictRate float64 `json:"conflict_rate"`
		IPC          float64 `json:"ipc"`
		Cycles       uint64  `json:"cycles"`
	} `json:"score"`
	// Search records the parameter search that first found the stream. No
	// artifact derives from it, so it is kept as written.
	Search json.RawMessage `json:"search"`
}

// updating reports whether the package's -update flag (report_test.go) asks
// golden tests to rewrite their files.
func updating() bool { return flag.Lookup("update").Value.String() == "true" }

// loadAdversarialMetas discovers the checked-in adversarial workload corpus
// (testdata/adversarial/*.meta.json).
func loadAdversarialMetas(t *testing.T) []adversarialMeta {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "adversarial", "*.meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]adversarialMeta, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &metas[i]); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if metas[i].Schema != adversarialMetaSchema {
			t.Fatalf("%s: schema %q, want %q", p, metas[i].Schema, adversarialMetaSchema)
		}
	}
	return metas
}

// TestAdversarialCorpusPresent pins the acceptance floor: the repository
// carries at least two adversarial streams.
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
//
// With -update it first rewrites each artifact from its meta record alone:
// the .lbictrace recorded from params at insts, the .report.json of
// replaying that file on port, and the meta's score from the same replay.
func TestAdversarialReplayByteIdentical(t *testing.T) {
	for _, m := range loadAdversarialMetas(t) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join("testdata", "adversarial")
			regen, err := lbic.RecordGeneratorTrace(m.Params, m.Insts)
			if err != nil {
				t.Fatal(err)
			}
			var reenc bytes.Buffer
			if err := lbic.WriteTraceStream(&reenc, regen); err != nil {
				t.Fatal(err)
			}
			if updating() {
				if err := os.WriteFile(filepath.Join(dir, m.Name+".lbictrace"), reenc.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
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
			var got bytes.Buffer
			if err := lbic.NewReport(res).WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if updating() {
				writeAdversarialReport(t, dir, &m, got.Bytes(), &res)
			}
			want, err := os.ReadFile(filepath.Join(dir, m.Name+".report.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("replayed report differs from stored %s.report.json (%d vs %d bytes); regenerate deliberately with go test -run TestAdversarialReplayByteIdentical -update .",
					m.Name, got.Len(), len(want))
			}
			if rate := res.PortConflictRate(); rate < m.Score.ConflictRate*0.999 || rate > m.Score.ConflictRate*1.001 {
				t.Errorf("replayed conflict rate %.4f drifted from minted score %.4f", rate, m.Score.ConflictRate)
			}
		})
	}
}

// writeAdversarialReport rewrites an artifact's .report.json with report,
// and its .meta.json, and m, with the score res measures.
func writeAdversarialReport(t *testing.T, dir string, m *adversarialMeta, report []byte, res *lbic.Result) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, m.Name+".report.json"), report, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Score.Conflicts = res.PortConflicts()
	m.Score.Accesses = res.PortAccesses()
	m.Score.ConflictRate = res.PortConflictRate()
	m.Score.IPC = res.IPC
	m.Score.Cycles = res.Cycles
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.Name+".meta.json"), append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialBeatsEveryKernel is the discovery claim: each minted
// stream's same-bank conflict rate on its target organization exceeds that
// of every synthetic SPEC95 kernel at the same instruction budget. The
// streams carry pressure the paper's workload suite does not exercise.
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
