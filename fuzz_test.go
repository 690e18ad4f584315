package lbic_test

import (
	"reflect"
	"testing"

	"lbic"
)

// FuzzParsePortName drives the port-name grammar, the first input boundary
// every CLI and lbicd request crosses. Any input must end as an error or as
// a configuration that validates, whose Key parses back to the same
// configuration, and whose arbiter build returns without panicking.
func FuzzParsePortName(f *testing.F) {
	for _, p := range lbic.PortAxis() {
		f.Add(p.Key())
	}
	f.Add("ideal-4")
	// Names past the size cap: each once allocated in proportion to its
	// digits.
	f.Add("bank-8388608")
	f.Add("true-10000000")
	f.Fuzz(func(t *testing.T, name string) {
		p, err := lbic.ParsePortName(name)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePortName(%q) = %+v, which fails Validate: %v", name, p, err)
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
