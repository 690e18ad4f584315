package lbic_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"lbic"
)

// TestPipelineViewGolden pins the timeline rows byte for byte: the header
// and per-cycle lines of swim on two organizations, one window printing
// every cycle and one sampling every tenth.
func TestPipelineViewGolden(t *testing.T) {
	prog, err := lbic.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		port, golden string
		view         lbic.PipelineView
	}{
		{"bank-4", "swim_bank-4_500_40.golden.txt", lbic.PipelineView{Skip: 500, Cycles: 40}},
		{"lbic-4x2", "swim_lbic-4x2_500_5_10.golden.txt", lbic.PipelineView{Skip: 500, Cycles: 5, Every: 10}},
	} {
		t.Run(tc.port, func(t *testing.T) {
			port, err := lbic.ParsePortName(tc.port)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			view := tc.view
			view.W = &buf
			cfg := lbic.DefaultConfig()
			cfg.Port = port
			cfg.MaxInsts = 20_000
			cfg.Pipeline = &view
			if _, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "pipeline", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("timeline differs from %s:\n got:\n%s\nwant:\n%s", tc.golden, buf.Bytes(), want)
			}
		})
	}
}

// TestPipelineViewLeavesReportUnchanged runs every kind of Source with and
// without Verify, each with and without a view: attaching the view must not
// change the serialized run report, or the error of a run Verify rejects.
func TestPipelineViewLeavesReportUnchanged(t *testing.T) {
	const insts = 5_000
	li, err := lbic.BuildBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := lbic.RecordBenchmarkTrace(li, insts)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join("examples", "asm", "saxpy.s"))
	if err != nil {
		t.Fatal(err)
	}
	saxpy, err := lbic.Assemble("saxpy", string(text))
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  lbic.Source
	}{
		{"program", lbic.ProgramSource(li)},
		{"trace", lbic.TraceSource(recorded)},
		{"generator", lbic.GeneratorSource(lbic.GenParams{Kind: "zipf"})},
		{"assembled", lbic.ProgramSource(saxpy)},
	}
	run := func(src lbic.Source, verify bool, view *lbic.PipelineView) string {
		cfg := lbic.DefaultConfig()
		cfg.Port = lbic.LBICPort(4, 2)
		cfg.MaxInsts = insts
		cfg.Verify = verify
		cfg.Pipeline = view
		res, err := lbic.Simulate(context.Background(), src, cfg)
		if err != nil {
			return "error: " + err.Error()
		}
		var buf bytes.Buffer
		if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, s := range sources {
		for _, verify := range []bool{false, true} {
			var rows bytes.Buffer
			plain := run(s.src, verify, nil)
			viewed := run(s.src, verify, &lbic.PipelineView{W: &rows, Skip: 100, Cycles: 50})
			if viewed != plain {
				t.Errorf("%s verify=%v: report with a view differs:\n got: %.300s\nwant: %.300s", s.name, verify, viewed, plain)
			}
			if rows.Len() == 0 && plain[0] == '{' {
				t.Errorf("%s verify=%v: the view printed nothing", s.name, verify)
			}
		}
	}
}
