package lbic_test

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lbic"
)

// FuzzParsePortName drives the port-name grammar, the first input boundary
// every CLI and lbicd request crosses. Any input must end as an error or as
// a configuration that validates, sets no field outside its kind's schema,
// has a Key that parses back to the same configuration, and builds an
// arbiter without panicking.
func FuzzParsePortName(f *testing.F) {
	for _, p := range lbic.PortAxis() {
		f.Add(p.Key())
	}
	f.Add("ideal-4")
	// Names past the size cap: each once allocated in proportion to its
	// digits.
	f.Add("bank-8388608")
	f.Add("true-10000000")
	// Store-queue depths on kinds without queues, which Validate refuses.
	f.Add("true-4-sq8")
	f.Add("bank-4-sq4")
	f.Add("mpb-2x2-sq4")
	schemas := map[lbic.PortKind][]string{}
	for _, o := range lbic.PortOrganizations() {
		schemas[o.Kind] = o.Schema
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := lbic.ParsePortName(name)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePortName(%q) = %+v, which fails Validate: %v", name, p, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for field := range fields {
			if !slices.Contains(schemas[p.Kind], field) {
				t.Fatalf("ParsePortName(%q) sets %s, outside the %s schema %v", name, field, p.Kind, schemas[p.Kind])
			}
		}
		q, err := lbic.ParsePortName(p.Key())
		if err != nil {
			t.Fatalf("ParsePortName(%q) = key %q, which does not parse: %v", name, p.Key(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePortName(%q) = %+v, but its key %q parses to %+v", name, p, p.Key(), q)
		}
		// Building may fail (a line buffer wider than the line), but only
		// with an error.
		lbic.ScenarioCycles(p, nil)
	})
}

// FuzzGenParams drives the generator-parameter boundary as lbicsim -gen
// crosses it: arbitrary bytes through json.Unmarshal into GenParams, then
// Resolve. A document the JSON decoder rejects is an error from it; any
// other input must end as a Resolve error naming the offending field (or the
// kind), or as params that simulate 1,000 instructions on true-4 within a
// 256 MiB allocation bound.
func FuzzGenParams(f *testing.F) {
	names := []string{"kind"}
	for _, g := range lbic.Generators() {
		seed := func(p lbic.GenParams) {
			raw, err := json.Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
		seed(g.Defaults)
		for _, fld := range lbic.GeneratorFields(g.Kind) {
			names = append(names, fld.Name)
			for _, v := range []int64{fld.Min, fld.Max} {
				p := g.Defaults
				fld.Set(&p, v)
				seed(p)
			}
		}
	}
	f.Add([]byte(`{"kind":"zipf","stride":8}`))
	f.Add([]byte(`{"kind":"chase","footprint":-1}`))
	f.Add([]byte(`{"kind":"nosuch"}`))
	port, err := lbic.ParsePortName("true-4")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p lbic.GenParams
		if json.Unmarshal(raw, &p) != nil {
			return
		}
		q, err := p.Resolve()
		if err != nil {
			for _, name := range names {
				if strings.Contains(err.Error(), name) {
					return
				}
			}
			t.Fatalf("Resolve(%s) = %v, which names no field", raw, err)
		}
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := lbic.Simulate(context.Background(), lbic.GeneratorSource(q), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s resolves to %+v, which fails to simulate: %v", raw, q, err)
		}
		if res.Insts != cfg.MaxInsts {
			t.Fatalf("%s simulated %d instructions, want %d", raw, res.Insts, cfg.MaxInsts)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<20 {
			t.Fatalf("%s allocated %d MiB to simulate 1,000 instructions, bound 256", raw, got>>20)
		}
	})
}
