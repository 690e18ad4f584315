package main

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"lbic"
)

func draw(t *testing.T, seed int64, n int, used ...string) []string {
	t.Helper()
	s := newPortSampler(rand.New(rand.NewSource(seed)), used...)
	out := make([]string, n)
	for i := range out {
		name, err := s.next()
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		out[i] = name
	}
	return out
}

func TestPortSamplerSeeded(t *testing.T) {
	a, b := draw(t, 7, 200), draw(t, 7, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs under one seed: %s vs %s", i, a[i], b[i])
		}
	}
	if c := draw(t, 8, 200); strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatal("seeds 7 and 8 drew the same sequence")
	}
}

// A served-simulate run makes about 2000 fresh points; draw well past that.
func TestPortSamplerValidNeverRepeats(t *testing.T) {
	hot := []string{"true-4", "bank-4", "lbic-4x2", "coded-4x1"}
	names := draw(t, 1, 4000, hot...)
	seen := make(map[string]bool)
	for _, h := range hot {
		seen[h] = true
	}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("%s drawn twice or drawn from the excluded set", name)
		}
		seen[name] = true
		p, err := lbic.ParsePortName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Key() != name {
			t.Fatalf("%s is not canonical (key %s)", name, p.Key())
		}
		if _, err := lbic.ScenarioCycles(p, []lbic.Ref{{Addr: 64}, {Addr: 96, Store: true}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPortSamplerCoversGrammar(t *testing.T) {
	names := draw(t, 3, 3000)
	joined := " " + strings.Join(names, " ") + " "
	for _, o := range lbic.PortOrganizations() {
		if o.Wire && !strings.Contains(joined, " "+o.Token+"-") {
			t.Errorf("kind %s never drawn", o.Token)
		}
	}
	for _, want := range []string{
		`true-1 `, `true-16 `, `bank-16`, `-xor-fold`, `-word-interleave`, `-greedy`,
		`-spec`, `-lb8`, `x8 `, `-sq1 `, `-sq16 `,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("no draw contains %q", want)
		}
	}
	if !regexp.MustCompile(`coded-\d+x\d+-lb\d+`).MatchString(joined) {
		t.Error("no coded organization with line buffers drawn")
	}
}
