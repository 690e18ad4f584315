package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lbic"
)

// paperRef is one column the paper reports as SPECint and SPECfp averages.
type paperRef struct {
	table           string // title prefix of the lbictables table holding the column
	column          string // the column header in that table
	port            string // the same design point as a served port name
	specInt, specFP float64
}

// paperRefs are the paper's SPECint/SPECfp IPC averages for the columns held
// out from kernel calibration, transcribed from EXPERIMENTS.md (the values
// in parentheses in its "Table 3" and "Table 4" sections): Table 3's Repl
// and Bank columns at 2-16 ports and all six Table 4 LBIC columns. The
// ideal (True) columns are excluded because they set the kernels' ILP
// (WORKLOADS.md).
var paperRefs = []paperRef{
	{"Table 3", "Repl-2", "repl-2", 3.98, 5.43},
	{"Table 3", "Bank-2", "bank-2", 3.99, 5.50},
	{"Table 3", "Repl-4", "repl-4", 5.14, 8.18},
	{"Table 3", "Bank-4", "bank-4", 5.28, 7.16},
	{"Table 3", "Repl-8", "repl-8", 5.62, 10.0},
	{"Table 3", "Bank-8", "bank-8", 6.01, 7.78},
	{"Table 3", "Repl-16", "repl-16", 5.73, 10.5},
	{"Table 3", "Bank-16", "bank-16", 6.20, 8.16},
	{"Table 4", "2x2", "lbic-2x2", 5.19, 7.98},
	{"Table 4", "2x4", "lbic-2x4", 5.51, 9.12},
	{"Table 4", "4x2", "lbic-4x2", 6.00, 8.93},
	{"Table 4", "4x4", "lbic-4x4", 6.10, 9.74},
	{"Table 4", "8x2", "lbic-8x2", 6.33, 9.42},
	{"Table 4", "8x4", "lbic-8x4", 6.34, 10.2},
}

// paperErrPct is paper_ipc_err_pct: the mean absolute error, in percent of
// the paper's value, of the measured SPECint and SPECfp averages over every
// reference column. avg returns a column's measured averages as printed.
func paperErrPct(avg func(ref paperRef) (specInt, specFP float64, err error)) (float64, error) {
	sum := 0.0
	for _, ref := range paperRefs {
		i, f, err := avg(ref)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(i-ref.specInt)/ref.specInt + math.Abs(f-ref.specFP)/ref.specFP
	}
	return 100 * sum / float64(2*len(paperRefs)), nil
}

// table is one table of `lbictables -json` output.
type table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// decodeTables splits lbictables -json output, a sequence of JSON tables.
func decodeTables(out []byte) ([]table, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	var ts []table
	for dec.More() {
		var t table
		if err := dec.Decode(&t); err != nil {
			return nil, fmt.Errorf("decoding lbictables output: %w", err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// tablesErrPct computes paper_ipc_err_pct from one paper-tables op's output,
// reading the "SPECint Ave." and "SPECfp Ave." rows of Tables 3 and 4.
func tablesErrPct(out []byte) (float64, error) {
	ts, err := decodeTables(out)
	if err != nil {
		return 0, err
	}
	cell := func(ref paperRef, row string) (float64, error) {
		for _, t := range ts {
			if !strings.HasPrefix(t.Title, ref.table+":") {
				continue
			}
			col := -1
			for i, h := range t.Headers {
				if h == ref.column {
					col = i
				}
			}
			for _, r := range t.Rows {
				if col > 0 && col < len(r) && r[0] == row {
					return strconv.ParseFloat(r[col], 64)
				}
			}
		}
		return 0, fmt.Errorf("no %s %q %q cell in lbictables output", ref.table, ref.column, row)
	}
	return paperErrPct(func(ref paperRef) (float64, float64, error) {
		i, err := cell(ref, "SPECint Ave.")
		if err != nil {
			return 0, 0, err
		}
		f, err := cell(ref, "SPECfp Ave.")
		return i, f, err
	})
}

// ipcErrPct computes paper_ipc_err_pct from per-kernel IPCs keyed by port
// and then benchmark, averaging each suite and rounding it as the tables
// print it, so a served sweep of the reference columns reproduces the
// paper-tables figure exactly.
func ipcErrPct(ipc map[string]map[string]float64) (float64, error) {
	return paperErrPct(func(ref paperRef) (float64, float64, error) {
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, b := range lbic.Benchmarks() {
			v, ok := ipc[ref.port][b.Name]
			if !ok {
				return 0, 0, fmt.Errorf("no IPC for %s on %s", b.Name, ref.port)
			}
			sums[b.Suite] += v
			counts[b.Suite]++
		}
		i := printedIPC(sums["int"] / float64(counts["int"]))
		f := printedIPC(sums["fp"] / float64(counts["fp"]))
		return i, f, nil
	})
}

// printedIPC rounds an IPC the way the tables print it: two decimals from
// 10 up, three below.
func printedIPC(v float64) float64 {
	prec := 3
	if v >= 10 {
		prec = 2
	}
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', prec, 64), 64)
	return r
}
