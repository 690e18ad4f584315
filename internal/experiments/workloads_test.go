package experiments

import (
	"strings"
	"testing"

	"lbic"
	"lbic/internal/stats"
)

func TestWorkloadMatrices(t *testing.T) {
	sw := testSweep(tinyInsts)
	for _, gen := range []struct {
		name string
		run  func(*Sweep) func() *stats.Table
	}{
		{"ipc", workloadMatrix},
		{"conflicts", workloadConflicts},
	} {
		t.Run(gen.name, func(t *testing.T) {
			tbl, err := runOne(sw, gen.run)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, kind := range lbic.GeneratorKinds() {
				if !strings.Contains(strings.ToLower(out), kind) {
					t.Errorf("table missing generator row %q", kind)
				}
			}
			if strings.Contains(out, errCell) {
				t.Errorf("table has ERR cells:\n%s", out)
			}
		})
	}
}

// TestGenCellKeyEncodesParams pins the key contract: the cell key carries
// the fully resolved generator parameters, so two parameterizations of one
// generator never share a key or a memoized Result.
func TestGenCellKeyEncodesParams(t *testing.T) {
	sw := testSweep(tinyInsts)
	cell := sw.simGen("zipf", lbic.BankedPort(4))
	rp, err := lbic.GenParams{Kind: "zipf"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := "sim/" + rp.Key() + "/bank-4/i20000"; cell.Key != want {
		t.Errorf("cell key = %q, want %q", cell.Key, want)
	}
	conf := sw.simGenConflict("zipf", lbic.BankedPort(4))
	if !strings.HasPrefix(conf.Key, "sim/conf/") {
		t.Errorf("conflict cell key %q not namespaced", conf.Key)
	}
}
