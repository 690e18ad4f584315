package main

import "fmt"

// runSmoke runs a few ops of every workload, untraced and traced, and fails
// unless each run prints exactly the metrics BENCHMARK.json names, with
// their units, and every op passed its output check.
func runSmoke(sp *spec, bin, ref, work string) error {
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the driver runs %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			e := newEnv(bin, ref, work, 1, 3, trace, w, sp)
			e.minOps, e.setups = 3, 1
			res, err := w.run(e, w)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
			printResult(w.name, res)
			if !res.correct || res.attempted == 0 {
				return fmt.Errorf("%s (trace %v): not correct, %d of %d ops failed", w.name, trace, res.failed, res.attempted)
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s (trace %v): printed %d metrics, BENCHMARK.json names %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					return fmt.Errorf("%s (trace %v): metric %s printed as %q, want unit %q", w.name, trace, m.Name, unit, m.Unit)
				}
			}
		}
	}
	return nil
}
