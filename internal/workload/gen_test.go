package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lbic/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite generator golden files")

func genDyns(t *testing.T, p GenParams, n int) []trace.Dyn {
	t.Helper()
	s, err := p.Stream()
	if err != nil {
		t.Fatalf("%s: Stream: %v", p.Kind, err)
	}
	out := make([]trace.Dyn, n)
	for i := range out {
		if !s.Next(&out[i]) {
			t.Fatalf("%s: stream ended at %d", p.Kind, i)
		}
	}
	return out
}

func TestGenDeterminism(t *testing.T) {
	for _, g := range Generators() {
		a := genDyns(t, GenParams{Kind: g.Kind}, 5000)
		b := genDyns(t, GenParams{Kind: g.Kind}, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: two streams from identical params diverge at %d:\n %+v\n %+v", g.Kind, i, a[i], b[i])
			}
		}
		c := genDyns(t, GenParams{Kind: g.Kind, Seed: 99}, 5000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same && g.Kind != "gcsweep" { // gcsweep is seed-free except marks
			t.Errorf("%s: seed change did not change the stream", g.Kind)
		}
	}
}

func TestGenStreamInvariants(t *testing.T) {
	const n = 20000
	for _, g := range Generators() {
		p, err := GenParams{Kind: g.Kind}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		dyns := genDyns(t, p, n)
		var mem int
		for i, d := range dyns {
			if d.Seq != uint64(i) {
				t.Fatalf("%s: inst %d has Seq %d", g.Kind, i, d.Seq)
			}
			if d.Class != d.Op.ClassOf() {
				t.Fatalf("%s: inst %d class %v, op %v wants %v", g.Kind, i, d.Class, d.Op, d.Op.ClassOf())
			}
			if d.IsMem() {
				mem++
				if d.Addr%8 != 0 || d.Size != 8 {
					t.Fatalf("%s: inst %d misaligned access addr=%#x size=%d", g.Kind, i, d.Addr, d.Size)
				}
			}
		}
		gotPct := float64(mem) * 100 / n
		if diff := gotPct - float64(p.MemPct); diff < -2 || diff > 2 {
			t.Errorf("%s: memory fraction %.1f%%, want %d%% ±2", g.Kind, gotPct, p.MemPct)
		}
	}
}

func TestGenValidate(t *testing.T) {
	bad := []GenParams{
		{Kind: "nope"},
		{Kind: "zipf", MemPct: 96},
		{Kind: "zipf", Keys: GenMaxKeys + 1},
		{Kind: "zipf", RecordBytes: 12}, // not a multiple of 8
		{Kind: "gcsweep", Stride: 4},
		{Kind: "multiprog", Contexts: 9},
		{Kind: "chase", Footprint: 128 << 20},
	}
	for _, p := range bad {
		if _, err := p.Resolve(); err == nil {
			t.Errorf("Resolve accepted %+v", p)
		}
	}
	for _, g := range Generators() {
		if _, err := (GenParams{Kind: g.Kind}).Resolve(); err != nil {
			t.Errorf("%s: catalog defaults do not validate: %v", g.Kind, err)
		}
		if err := g.Defaults.Validate(); err != nil {
			t.Errorf("%s: Defaults incomplete: %v", g.Kind, err)
		}
	}
}

func TestGenKeyStable(t *testing.T) {
	seen := map[string]string{}
	for _, g := range Generators() {
		k := GenParams{Kind: g.Kind}.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %q shared by %s and %s", k, prev, g.Kind)
		}
		seen[k] = g.Kind
		if k != g.Defaults.Key() {
			t.Errorf("%s: zero-params key %q != defaults key %q", g.Kind, k, g.Defaults.Key())
		}
	}
	a := GenParams{Kind: "zipf", SkewPct: 50}.Key()
	b := GenParams{Kind: "zipf", SkewPct: 60}.Key()
	if a == b {
		t.Error("different skew, same key")
	}
}

// TestGeneratorGolden pins the first 64 memory accesses of every catalog
// generator. A diff here means generator drift: every golden table, trace
// file and adversarial artifact built on these streams shifts with it.
// Regenerate deliberately with scripts/regen-golden.
func TestGeneratorGolden(t *testing.T) {
	for _, g := range Generators() {
		t.Run(g.Kind, func(t *testing.T) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "# first 64 memory accesses of %q (catalog defaults)\n", g.Kind)
			fmt.Fprintf(&buf, "# seq  op  pc  addr  size\n")
			s, err := GenParams{Kind: g.Kind}.Stream()
			if err != nil {
				t.Fatal(err)
			}
			var d trace.Dyn
			for n := 0; n < 64; {
				if !s.Next(&d) {
					t.Fatal("stream ended early")
				}
				if !d.IsMem() {
					continue
				}
				fmt.Fprintf(&buf, "%6d %-4s %3d 0x%08x %d\n", d.Seq, d.Op, d.PC, d.Addr, d.Size)
				n++
			}
			path := filepath.Join("testdata", "golden", "gen-"+g.Kind+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with scripts/regen-golden)", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("golden mismatch for %s (regenerate deliberately with scripts/regen-golden)\n got:\n%s\nwant:\n%s",
					g.Kind, buf.Bytes(), want)
			}
		})
	}
}
