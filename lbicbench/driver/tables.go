package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

const (
	tablesInsts = 20000
	// tablesSimInsts is what one `-all` op simulates: 270 distinct timing
	// runs (Table 3: 130, Table 4: 60, coded banks: 40 not already in
	// Tables 3-4, workload matrices: 40) at 20k instructions each.
	tablesSimInsts = 270 * tablesInsts

	// tablesSHA256 is the digest of one op's standard output, generated
	// with `lbictables -all -insts 20000 -jobs 2 -json -q` and confirmed
	// identical under `-jobs 1 -lanes 1`, so a table that depends on
	// scheduling fails the check. testdata/paper-tables.json holds the
	// bytes.
	tablesSHA256 = "c0ee8f4fd9c9d640bcc891c414960f0416387a12dee6bfe3875364bbf1d6c6b0"
)

var tablesArgs = []string{"-all", "-insts", strconv.Itoa(tablesInsts), "-jobs", "2", "-json"}

// tablesOp runs one lbictables op of the build in bin. ok is false when the
// process failed, a cell failed, or its output differs from the golden
// digest.
func tablesOp(e *env, bin string, extra []string, extraEnv ...string) (c child, ok bool, err error) {
	args := append(append([]string(nil), tablesArgs...), extra...)
	c, err = runChild(filepath.Join(bin, "lbictables"), args, extraEnv...)
	if err != nil {
		return c, false, err
	}
	sum := sha256.Sum256(c.stdout)
	switch {
	case c.code != 0:
		e.log("lbictables exited %d: %s", c.code, lastLine(c.stderr))
	case failedCells.Match(c.stderr):
		e.log("lbictables: %s", failedCells.Find(c.stderr))
	case hex.EncodeToString(sum[:]) != tablesSHA256:
		e.log("lbictables output digest %x differs from the golden digest", sum)
	default:
		return c, true, nil
	}
	return c, false, nil
}

var failedCells = regexp.MustCompile(`\d+ cell\(s\) failed`)

// runTables is paper-tables. Set-up and the timed phase both run in cycles
// of the program's op, the reference's op and the program's op again; a
// set-up is the first, untimed run of a fresh process.
func runTables(e *env, w *workload) (*result, error) {
	if e.trace {
		return tablesTraced(e, w)
	}
	r := &result{}
	// errPct is read from the first op whose output passed its checks.
	errPct := math.NaN()
	var rss []float64
	// progOp runs one op of the program into s; an op that fails its
	// checks counts as failed.
	progOp := func(s *side) func() error {
		return func() error {
			c, ok, err := tablesOp(e, e.bin, []string{"-q"})
			if err != nil {
				return err
			}
			r.attempted++
			if !ok {
				r.failed++
				return nil
			}
			s.add(c.wall)
			rss = append(rss, c.maxRSS)
			if math.IsNaN(errPct) {
				errPct, err = tablesErrPct(c.stdout)
			}
			return err
		}
	}
	// refOp runs one op of the reference into s; it must pass the same
	// checks.
	refOp := func(s *side) func() error {
		return func() error {
			c, ok, err := tablesOp(e, e.ref, []string{"-q"})
			if err == nil && !ok {
				err = fmt.Errorf("the reference's lbictables op failed its checks")
			}
			if err == nil {
				s.add(c.wall)
			}
			return err
		}
	}
	var setup, refSetup, prog, ref side
	for range e.setups {
		if err := cycle(progOp(&setup), refOp(&refSetup)); err != nil {
			return nil, err
		}
	}
	l := newLoop(e.seconds, e.minOps)
	for l.more(len(prog.lat)) {
		if err := cycle(progOp(&prog), refOp(&ref)); err != nil {
			return nil, err
		}
	}
	r.correct = r.failed == 0
	setupStat(r, w, setup, refSetup)
	opStats(r, w, prog, ref)
	r.add("max_rss_mb", median(rss), "MiB")
	r.add("paper_ipc_err_pct", errPct, "%")
	r.note("max_rss_mb is the median of the program children's own peak RSS")
	return r, nil
}

// procStartMS times lbictables exiting at its usage message: process start
// plus Go runtime initialization.
func procStartMS(e *env) (float64, error) {
	var xs []float64
	for range 5 {
		c, err := runChild(filepath.Join(e.bin, "lbictables"), nil)
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms(c.wall))
	}
	return median(xs), nil
}

func lastLine(b []byte) string {
	s := strings.TrimRight(string(b), "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// path returns a scratch file path under the run's work directory.
func (e *env) path(name string) (string, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(e.work, name), nil
}
