// Command benchab is a paired A/B of the micro-benchmarks between a base
// revision and the working tree (`make bench-ab`). It extracts the base with
// `git archive` into a temporary directory, builds `go test -c` binaries of
// each benchmarked package at the base and in the working tree, and runs
// every benchmark on both for a number of rounds at 1 s on one CPU,
// alternating which side goes first, so host drift hits both builds alike.
// Per leg it prints the median, quartiles and min–max of ns/op on each side,
// their ratio, and the allocations per op.
//
//	go run ./scripts/benchab [-base REV] [-rounds 10] [PKG:REGEXP ...]
//
// It exits 1 when a leg's median on the working tree is more than 10% above
// the base's and the two min–max ranges do not overlap.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// defaultSpecs are the benchmarks compared when none are named: every
// arbiter's grant, and the core's step on the plain bank-4 loop, alone and
// through the lane scheduler.
var defaultSpecs = []string{
	".:^BenchmarkGrant$",
	"./internal/cpu:^BenchmarkCoreStep$",
	"./internal/cpu:^BenchmarkLaneStep$/^k1$",
}

// threshold is the fraction by which a leg's median may exceed the base's
// before separated min–max ranges fail the run.
const threshold = 0.10

// runFlags are passed to every benchmark run on both sides.
var runFlags = []string{"-test.run=^$", "-test.benchmem", "-test.benchtime=1s", "-test.cpu=1", "-test.timeout=30m"}

// spec is one benchmark selection: a package directory and a -bench regexp.
type spec struct{ pkg, pattern string }

// sample is one leg's measurements on one side.
type sample struct {
	ns     []float64
	allocs []float64
}

func main() {
	base := flag.String("base", "", "base revision (default: the merge-base of HEAD and main)")
	rounds := flag.Int("rounds", 10, "rounds; each runs every benchmark once on each side")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = defaultSpecs
	}
	var specs []spec
	for _, a := range args {
		pkg, pat, ok := strings.Cut(a, ":")
		if !ok {
			fatal(fmt.Errorf("benchmark %q is not PKG:REGEXP", a))
		}
		specs = append(specs, spec{pkg, pat})
	}
	if *base == "" {
		out, err := exec.Command("git", "merge-base", "HEAD", "main").Output()
		if err != nil {
			fatal(fmt.Errorf("git merge-base HEAD main: %w", err))
		}
		*base = strings.TrimSpace(string(out))
	}
	fmt.Printf("base %s vs working tree: %d rounds\n", short(*base), *rounds)
	legs, results, err := run(*base, specs, *rounds)
	if err != nil {
		fatal(err)
	}
	if report(os.Stdout, legs, results) {
		os.Exit(1)
	}
}

// run builds both sides' test binaries in a temporary directory and runs
// every spec on both for the given rounds. It returns the legs in the order
// they first printed and each side's samples (base first).
func run(base string, specs []spec, rounds int) ([]string, [2]map[string]*sample, error) {
	results := [2]map[string]*sample{{}, {}}
	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return nil, results, err
	}
	defer os.RemoveAll(tmp)
	head, err := os.Getwd()
	if err != nil {
		return nil, results, err
	}
	trees := [2]string{filepath.Join(tmp, "base"), head}
	if err := extract(base, tmp, trees[0]); err != nil {
		return nil, results, err
	}
	var bins [2][]string
	for side, tree := range trees {
		for i, s := range specs {
			bin := filepath.Join(tmp, fmt.Sprintf("side%d-spec%d.test", side, i))
			// -trimpath keeps the checkout's path out of the binary, so
			// an A/A run compares byte-identical binaries.
			cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, s.pkg)
			cmd.Dir, cmd.Stderr = tree, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, results, fmt.Errorf("building %s in %s: %w", s.pkg, tree, err)
			}
			bins[side] = append(bins[side], bin)
		}
	}
	var legs []string
	for r := 0; r < rounds; r++ {
		for i, s := range specs {
			order := [2]int{0, 1}
			if r%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				cmd := exec.Command(bins[side][i], append(runFlags, "-test.bench="+s.pattern)...)
				cmd.Dir, cmd.Stderr = filepath.Join(trees[side], s.pkg), os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return nil, results, fmt.Errorf("running %s in %s: %w\n%s", s.pattern, trees[side], err, out)
				}
				for _, l := range parse(out) {
					sm := results[side][l.name]
					if sm == nil {
						sm = &sample{}
						results[side][l.name] = sm
						if !slices.Contains(legs, l.name) {
							legs = append(legs, l.name)
						}
					}
					sm.ns = append(sm.ns, l.ns)
					sm.allocs = append(sm.allocs, l.allocs)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "round %d/%d done\n", r+1, rounds)
	}
	return legs, results, nil
}

// report prints one row per leg and returns whether any leg regressed.
func report(w io.Writer, legs []string, results [2]map[string]*sample) bool {
	fmt.Fprintf(w, "%-28s %-5s %-36s %-36s %6s %s\n", "leg", "unit", "base median [q1-q3] (min-max)",
		"head median [q1-q3] (min-max)", "ratio", "allocs/op base/head")
	failed := false
	for _, leg := range legs {
		b, h := results[0][leg], results[1][leg]
		if b == nil || h == nil {
			fmt.Fprintf(w, "%-28s only on one side\n", leg)
			continue
		}
		bs, hs := summarize(b.ns), summarize(h.ns)
		ratio := hs.median / bs.median
		verdict := ""
		if ratio > 1+threshold && hs.min > bs.max {
			verdict, failed = "  REGRESSION", true
		}
		unit, scale := "ns", 1.0
		switch {
		case bs.median >= 1e6:
			unit, scale = "ms", 1e6
		case bs.median >= 1e3:
			unit, scale = "us", 1e3
		}
		fmt.Fprintf(w, "%-28s %-5s %-36s %-36s %6.3f %.0f/%.0f%s\n", leg, unit, bs.format(scale), hs.format(scale),
			ratio, summarize(b.allocs).max, summarize(h.allocs).max, verdict)
	}
	return failed
}

// stats summarizes one side's runs of a leg.
type stats struct{ median, q1, q3, min, max float64 }

// format renders the summary in units of scale nanoseconds.
func (s stats) format(scale float64) string {
	return fmt.Sprintf("%.4g [%.4g-%.4g] (%.4g-%.4g)", s.median/scale, s.q1/scale, s.q3/scale, s.min/scale, s.max/scale)
}

func summarize(xs []float64) stats {
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), min: s[0], max: s[len(s)-1]}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// line is one parsed benchmark result.
type line struct {
	name       string
	ns, allocs float64
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

// parse extracts the ns/op and allocs/op of every result line.
func parse(out []byte) []line {
	var ls []line
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		allocs, _ := strconv.ParseFloat(m[3], 64) // absent without -benchmem: 0
		ls = append(ls, line{name: m[1], ns: ns, allocs: allocs})
	}
	return ls
}

// extract writes the tree of rev into dir, through a tar archive in tmp.
func extract(rev, tmp, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := filepath.Join(tmp, "base.tar")
	for _, args := range [][]string{{"git", "archive", "-o", archive, rev}, {"tar", "-xf", archive, "-C", dir}} {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
		}
	}
	return nil
}

func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchab:", err)
	os.Exit(2)
}
