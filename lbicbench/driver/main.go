// Command lbicbench is the repository's benchmark driver. It runs one
// closed-loop workload against the built lbictables, lbicd and lbicsim
// binaries and prints every metric by name and unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {"op_ms_p50": {"value": 851.2, "unit": "ms"}, ...}}
//
// Workloads (see README.md for the rationale of each):
//
//	paper-tables     op = one `lbictables -all -insts 20000 -jobs 2 -json -q` process
//	served-sweep     op = one /v1/sweep of the ten kernels x 4 never-seen ports at 100k instructions
//	served-simulate  op = one /v1/simulate at 100k instructions, 90% hot set, 10% never-seen points
//
// Every workload runs the same work on a frozen reference build of
// lbictables and lbicd between the program's ops and reports each
// host-time metric paced against it (see pace): the shared host's speed
// drifts too far between runs for raw wall-clock figures to repeat.
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it prints
// the per-layer metrics instead: counts read from output the program already
// produces, unit costs from the lbicledger helper, and the cost ledger that
// multiplies them by the op's exact work. -smoke runs a few ops of every
// workload in both modes and fails unless every metric is printed.
//
// It is normally started through run.sh, which builds the binaries first:
//
//	bash lbicbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
//
// run.sh builds the driver against the frozen reference's lbic package, so
// the port grammar the served requests are drawn from, and every function
// the driver calls, stay as they were when the benchmark was added; the
// program under test is reached only through its binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// env is what one workload run gets: where the binaries are, a scratch
// directory, the seeded input generator, and the run's time budget.
type env struct {
	bin string
	// ref holds the frozen reference's lbictables and lbicd.
	ref     string
	work    string
	rng     *rand.Rand
	seconds time.Duration
	// minOps extends the timed phase until the tail percentile has at least
	// ten program ops beyond it.
	minOps int
	// setups is how many set-up cycles run; setup_s is paced from them.
	setups int
	trace  bool
	// perLayer is BENCHMARK.json's per_layer list, which the traced run
	// prints in order.
	perLayer []named
	log      func(format string, args ...any)
}

// result is one run's outcome: ops attempted and failed, every output check
// passed or not, and the metrics in print order.
type result struct {
	attempted, failed int
	correct           bool
	metrics           []metric
	// notes are printed beside the metrics (op counts, percentiles, the
	// Minst/s conversion constant).
	notes []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one closed loop the benchmark can run.
type workload struct {
	name string
	// tail is the reported tail percentile; minOps guarantees at least ten
	// ops beyond it.
	tail   float64
	minOps int
	// simInsts is the simulated-instruction count one op carries, the
	// constant converting ops_per_s to simulated Minst/s.
	simInsts float64
	pace     pace
	run      func(e *env, w *workload) (*result, error)
}

// Each pace holds round figures the reference measured for its workload on
// a shared 2-vCPU VM; they only set the scale of the paced metrics.
var workloads = []*workload{
	{name: "paper-tables", tail: 60, minOps: 25, simInsts: tablesSimInsts,
		pace: pace{setupS: 0.75, p50MS: 750, tailMS: 790, opsPerS: 1.33}, run: runTables},
	{name: "served-sweep", tail: 75, minOps: 40, simInsts: sweepCells * servedInsts,
		pace: pace{setupS: 0.83, p50MS: 440, tailMS: 490, opsPerS: 2.25}, run: runServedSweep},
	{name: "served-simulate", tail: 99, minOps: 1000, simInsts: servedInsts,
		pace: pace{setupS: 0.55, p50MS: 0.125, tailMS: 28.7, opsPerS: 900}, run: runServedSimulate},
}

// named is one entry of a BENCHMARK.json list.
type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is what the driver reads from BENCHMARK.json: the traced run prints
// its per_layer metrics, and the smoke run checks every list.
type spec struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &sp, nil
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-tables | served-sweep | served-simulate")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics and the cost ledger instead of the end-to-end metrics")
		bin     = flag.String("bin", "", "directory holding the built lbictables, lbicd, lbicsim and lbicledger")
		ref     = flag.String("ref", "", "directory holding the frozen reference's lbictables and lbicd")
		work    = flag.String("work", "", "scratch directory for child output")
		specAt  = flag.String("spec", "", "the benchmark's BENCHMARK.json, which names every metric")
		smoke   = flag.Bool("smoke", false, "run a few ops of every workload in both modes and check every metric named in -spec is printed")
	)
	flag.Parse()
	if *bin == "" || *ref == "" || *work == "" || *specAt == "" {
		fail("-bin, -ref, -work and -spec are required")
	}
	sp, err := loadSpec(*specAt)
	if err != nil {
		fail(err.Error())
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err.Error())
	}
	if *smoke {
		if err := runSmoke(sp, *bin, *ref, *work); err != nil {
			fail("smoke: " + err.Error())
		}
		fmt.Println("smoke: every workload printed every metric in both modes")
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail("-seconds must be >= 1 and -trace 0 or 1")
	}
	e := newEnv(*bin, *ref, *work, *seed, *seconds, *trace == 1, w, sp)
	res, err := w.run(e, w)
	if err != nil {
		fail(fmt.Sprintf("%s: %v", w.name, err))
	}
	printResult(w.name, res)
}

func newEnv(bin, ref, work string, seed int64, seconds int, trace bool, w *workload, sp *spec) *env {
	return &env{
		bin:      bin,
		ref:      ref,
		work:     filepath.Join(work, w.name),
		rng:      rand.New(rand.NewSource(seed)),
		seconds:  time.Duration(seconds) * time.Second,
		minOps:   w.minOps,
		setups:   2,
		trace:    trace,
		perLayer: sp.PerLayer,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lbicbench: "+format+"\n", args...)
		},
	}
}

// dropUnmeasured leaves out every metric without a value, such as the
// latencies of a run whose program ops all failed. A run missing a metric
// is not correct, but still reports its ops attempted and failed.
func (r *result) dropUnmeasured() {
	kept := r.metrics[:0]
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "lbicbench: %s was not measured\n", m.name)
			r.correct = false
			continue
		}
		kept = append(kept, m)
	}
	r.metrics = kept
}

// printResult writes the human-readable summary and then, as the last line,
// the machine-readable result object.
func printResult(name string, r *result) {
	r.dropUnmeasured()
	fmt.Printf("workload %s: %d ops attempted, %d failed, outputs correct: %v\n", name, r.attempted, r.failed, r.correct)
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Printf("  %-36s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(out))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "lbicbench:", msg)
	os.Exit(1)
}
