// Command benchab is the repository's performance gate (`make bench-ab`): a
// paired A/B of the micro-benchmarks between a base revision and the working
// tree. It extracts the base with `git archive` into a temporary directory,
// builds one `go test -c` binary per benchmarked package on each side, and
// runs every benchmark on both for a number of rounds of short (20 ms)
// samples on one CPU, alternating which side goes first, so host drift hits
// both builds alike.
//
//	go run ./scripts/benchab [-base REV] [-rounds 100] [PKG:REGEXP ...]
//
// The two samples of a leg in one round are a pair. Per leg it prints each
// side's median ns/op, the median of the per-round ratios head ÷ base, and a
// 95% bootstrap interval on that median (fixed seed, so the same samples give
// the same verdict). It exits 1 when a leg's whole interval lies above
// 1 + threshold, unless the leg's head median is under the absolute floor,
// where the timing is mostly the benchmark's own loop.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSpecs are the benchmarks compared when none are named: every
// arbiter's grant, a run's fixed cost alone and as a lane batch, whole
// replayed runs, and the core's step on the plain bank-4 loop, alone and
// through the lane scheduler.
var defaultSpecs = []string{
	".:^BenchmarkGrant$",
	".:^BenchmarkRunFixed$/^k[18]$",
	".:^BenchmarkSimulatorThroughput$/.*/.*/^replay$",
	"./internal/cpu:^BenchmarkCoreStep$",
	"./internal/cpu:^BenchmarkLaneStep$/^k[14]$",
}

const (
	// threshold is the slowdown a leg's interval must lie wholly above to
	// fail. It sits below a 10% regression by more than the interval
	// half-widths measured on identical code (EXPERIMENTS.md).
	threshold = 0.05
	// floorNs is the head median under which a leg never fails: a few
	// nanoseconds are mostly the benchmark loop, which moves with layout.
	floorNs = 10.0
	// resamples and seed fix the bootstrap.
	resamples = 2000
	seed      = 1
)

// runFlags are passed to every benchmark run on both sides. Samples are
// short so that a run holds many pairs: at equal wall time, 20 ms samples
// gave intervals as narrow as 100 ms ones and narrower than 200 ms ones
// (EXPERIMENTS.md).
var runFlags = []string{"-test.run=^$", "-test.benchmem", "-test.benchtime=20ms", "-test.cpu=1", "-test.timeout=30m"}

// spec is one benchmark selection: a package directory and a -bench regexp.
type spec struct{ pkg, pattern string }

// sample is one leg's measurements on one side, one per round.
type sample struct {
	ns     []float64
	allocs []float64
}

func main() {
	base := flag.String("base", "", "base revision (default: the merge-base of HEAD and main)")
	rounds := flag.Int("rounds", 100, "rounds; each runs every benchmark once on each side")
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
	start := time.Now()
	fmt.Printf("base %s vs working tree: %d rounds\n", short(*base), *rounds)
	legs, results, err := run(*base, specs, *rounds)
	if err != nil {
		fatal(err)
	}
	failed := report(os.Stdout, legs, results)
	fmt.Printf("wall %s\n", time.Since(start).Round(time.Second))
	if failed {
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
	// One binary per package and side, however many specs name the package.
	bins := [2]map[string]string{{}, {}}
	for side, tree := range trees {
		for _, s := range specs {
			if bins[side][s.pkg] != "" {
				continue
			}
			bin := filepath.Join(tmp, fmt.Sprintf("side%d-pkg%d.test", side, len(bins[side])))
			// -trimpath keeps the checkout's path out of the binary, so
			// an A/A run compares byte-identical binaries.
			cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, s.pkg)
			cmd.Dir, cmd.Stderr = tree, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, results, fmt.Errorf("building %s in %s: %w", s.pkg, tree, err)
			}
			bins[side][s.pkg] = bin
		}
	}
	var legs []string
	for r := 0; r < rounds; r++ {
		for _, s := range specs {
			order := [2]int{0, 1}
			if r%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				cmd := exec.Command(bins[side][s.pkg], append(runFlags, "-test.bench="+s.pattern)...)
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
	fmt.Fprintf(w, "fails when the 95%% interval of the median paired ratio lies above %.2f; never under %.0f ns/op\n",
		1+threshold, floorNs)
	fmt.Fprintf(w, "%-54s %-4s %9s %9s %6s %-15s %-19s %s\n", "leg", "unit", "base", "head", "ratio",
		"95% interval", "allocs/op base/head", "verdict")
	failed := false
	for _, leg := range legs {
		b, h := results[0][leg], results[1][leg]
		if b == nil || h == nil {
			fmt.Fprintf(w, "%-54s on one side only\n", leg)
			continue
		}
		v := judge(b.ns, h.ns)
		failed = failed || v.fail
		bm, hm := median(b.ns), median(h.ns)
		unit, scale := "ns", 1.0
		switch {
		case bm >= 1e6:
			unit, scale = "ms", 1e6
		case bm >= 1e3:
			unit, scale = "us", 1e3
		}
		fmt.Fprintf(w, "%-54s %-4s %9.4g %9.4g %6.3f [%.3f-%.3f]   %9.0f/%-9.0f %s\n", leg, unit, bm/scale, hm/scale,
			v.ratio, v.lo, v.hi, slices.Max(b.allocs), slices.Max(h.allocs), v.label())
	}
	return failed
}

// verdict is the decision on one leg.
type verdict struct {
	ratio, lo, hi float64 // median paired ratio and its 95% interval
	floor         bool    // head median under floorNs
	fail          bool
}

func (v verdict) label() string {
	switch {
	case v.fail:
		return "REGRESSION"
	case v.floor:
		return "under floor"
	}
	return "ok"
}

// judge decides one leg from its per-round samples, base[r] and head[r]
// taken in the same round. It bootstraps the median of the ratios
// head[r]/base[r] with a fixed seed and fails the leg when the whole 95%
// interval lies above 1 + threshold and the head median is at least floorNs.
func judge(base, head []float64) verdict {
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = head[i] / base[i]
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	meds := make([]float64, resamples)
	draw := make([]float64, len(ratios))
	for i := range meds {
		for j := range draw {
			draw[j] = ratios[rng.IntN(len(ratios))]
		}
		meds[i] = median(draw)
	}
	slices.Sort(meds)
	v := verdict{ratio: median(ratios), lo: quantile(meds, 0.025), hi: quantile(meds, 0.975)}
	v.floor = median(head) < floorNs
	v.fail = v.lo > 1+threshold && !v.floor
	return v
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
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
