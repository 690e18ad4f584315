package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// testdata/paper-tables.json is one paper-tables op's standard output.
func readOp(t *testing.T) []byte {
	t.Helper()
	out, err := os.ReadFile("testdata/paper-tables.json")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != tablesSHA256 {
		t.Fatalf("testdata digest %x is not the golden digest %s", sum, tablesSHA256)
	}
	return out
}

func TestTablesErrPctFromOpOutput(t *testing.T) {
	got, err := tablesErrPct(readOp(t))
	if err != nil {
		t.Fatal(err)
	}
	// Recompute by hand from the printed averages of Tables 3 and 4.
	ts, err := decodeTables(readOp(t))
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{} // "Table 3/Repl-2/SPECint Ave." -> value
	for _, tb := range ts {
		name, _, _ := strings.Cut(tb.Title, ":")
		for _, row := range tb.Rows {
			for i, h := range tb.Headers {
				if v, err := strconv.ParseFloat(row[i], 64); err == nil {
					measured[name+"/"+h+"/"+row[0]] = v
				}
			}
		}
	}
	sum := 0.0
	for _, ref := range paperRefs {
		mi := measured[ref.table+"/"+ref.column+"/SPECint Ave."]
		mf := measured[ref.table+"/"+ref.column+"/SPECfp Ave."]
		if mi == 0 || mf == 0 {
			t.Fatalf("no averages for %s %s", ref.table, ref.column)
		}
		sum += math.Abs(mi-ref.specInt)/ref.specInt + math.Abs(mf-ref.specFP)/ref.specFP
	}
	if want := 100 * sum / 28; math.Abs(got-want) > 1e-9 {
		t.Fatalf("paper_ipc_err_pct = %v, hand computation gives %v", got, want)
	}
	if got < 1 || got > 60 {
		t.Fatalf("paper_ipc_err_pct = %v, outside any plausible band", got)
	}
}

// The served path averages per-kernel IPCs itself; fed the paper's own
// averages as every kernel's IPC it must report zero error, and fed values
// 10% high it must report 10%.
func TestIPCErrPct(t *testing.T) {
	for _, scale := range []float64{1, 1.1} {
		ipc := map[string]map[string]float64{}
		for _, ref := range paperRefs {
			ipc[ref.port] = map[string]float64{}
			for _, k := range []string{"compress", "gcc", "go", "li", "perl"} {
				ipc[ref.port][k] = ref.specInt * scale
			}
			for _, k := range []string{"hydro2d", "mgrid", "su2cor", "swim", "wave5"} {
				ipc[ref.port][k] = ref.specFP * scale
			}
		}
		got, err := ipcErrPct(ipc)
		if err != nil {
			t.Fatal(err)
		}
		if want := 100 * (scale - 1); math.Abs(got-want) > 0.05 {
			t.Errorf("scale %v: paper_ipc_err_pct = %v, want %v", scale, got, want)
		}
	}
}

func TestPrintedIPC(t *testing.T) {
	for v, want := range map[float64]float64{5.7374: 5.737, 11.476: 11.48, 9.9996: 10.000} {
		if got := printedIPC(v); got != want {
			t.Errorf("printedIPC(%v) = %v, want %v", v, got, want)
		}
	}
}
