package lbic_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lbic"
)

// roundTripPorts is the catalogue of serializable configurations: every
// built-in kind, plus selector, greedy, and store-queue variations.
func roundTripPorts() []lbic.PortConfig {
	bankXor := lbic.BankedPort(8)
	bankXor.Selector = lbic.XorFold
	bankWord := lbic.BankedPort(4)
	bankWord.Selector = lbic.WordInterleave
	greedy := lbic.LBICPort(4, 2)
	greedy.Greedy = true
	lbicSQ := lbic.LBICPort(8, 2)
	lbicSQ.StoreQueueDepth = 4
	banksqDeep := lbic.BankedSQPort(8)
	banksqDeep.StoreQueueDepth = 6
	codedSpec := lbic.CodedPort(4, 1)
	codedSpec.Speculative = true
	codedComposed := lbic.CodedPort(8, 2)
	codedComposed.LinePorts = 2
	codedComposed.Speculative = true
	codedSQ := lbic.CodedPort(4, 2)
	codedSQ.StoreQueueDepth = 4
	return []lbic.PortConfig{
		lbic.IdealPort(1),
		lbic.IdealPort(4),
		lbic.ReplicatedPort(2),
		lbic.BankedPort(8),
		bankXor,
		bankWord,
		lbic.VirtualPort(2),
		lbic.BankedSQPort(4),
		banksqDeep,
		lbic.LBICPort(4, 2),
		greedy,
		lbicSQ,
		lbic.MultiPortedBanksPort(2, 2),
		lbic.CodedPort(4, 1),
		codedSpec,
		codedComposed,
		codedSQ,
	}
}

func TestPortConfigJSONRoundTrip(t *testing.T) {
	for _, p := range roundTripPorts() {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", p.Key(), err)
		}
		var back lbic.PortConfig
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", p.Key(), raw, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%s: round trip %s -> %+v != %+v", p.Key(), raw, back, p)
		}
	}
}

func TestParsePortNameRoundTrip(t *testing.T) {
	for _, p := range roundTripPorts() {
		back, err := lbic.ParsePortName(p.Key())
		if err != nil {
			t.Fatalf("ParsePortName(%q): %v", p.Key(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("ParsePortName(%q) = %+v, want %+v", p.Key(), back, p)
		}
	}
	// The alias and the display-name form (no -sq suffix) also parse.
	if p, err := lbic.ParsePortName("ideal-4"); err != nil || !reflect.DeepEqual(p, lbic.IdealPort(4)) {
		t.Errorf("ideal-4 = %+v, %v", p, err)
	}
	if p, err := lbic.ParsePortName("lbic-4x2-greedy"); err != nil || !p.Greedy {
		t.Errorf("lbic-4x2-greedy = %+v, %v", p, err)
	}
}

func TestParsePortNameErrors(t *testing.T) {
	for _, name := range []string{
		"", "bogus", "true", "true-x", "lbic-4", "lbic-4x", "mpb-2",
		"bank-8-mystery", "custom", "custom-foo", "lbic-4x2-sneaky",
		"bank-3",             // not a power of two: Validate rejects it
		"true-0",             // width must be >= 1
		"true--1",            // negative width
		"coded-4",            // missing parity dimension
		"coded-3x1",          // banks not a power of two
		"coded-4x0",          // parity banks must be >= 1
		"coded-4x3",          // parity banks must divide banks
		"coded-4x1-lb1",      // a 1-port line buffer is no line buffer
		"coded-4x1-spec-lb2", // suffixes out of canonical order
	} {
		if p, err := lbic.ParsePortName(name); err == nil {
			t.Errorf("ParsePortName(%q) = %+v, want error", name, p)
		}
	}
	// A name outside the grammar fails with an example of every wire kind.
	_, err := lbic.ParsePortName("lbic")
	for _, o := range lbic.PortOrganizations() {
		if o.Wire && !strings.Contains(err.Error(), o.Token+"-") {
			t.Errorf("error %q has no %s example", err, o.Token)
		}
	}
	if !strings.Contains(err.Error(), "-sqD") {
		t.Errorf("error %q omits the -sqD suffix", err)
	}
}

func TestPortConfigValidate(t *testing.T) {
	bad := []lbic.PortConfig{
		lbic.IdealPort(0),
		lbic.ReplicatedPort(-1),
		lbic.BankedPort(3),
		lbic.BankedPort(0),
		lbic.BankedSQPort(5),
		lbic.LBICPort(6, 2),
		lbic.LBICPort(4, 0),
		lbic.MultiPortedBanksPort(4, 0),
		lbic.MultiPortedBanksPort(3, 2),
		{Kind: lbic.PortKind(42)},
	}
	negSQ := lbic.LBICPort(4, 2)
	negSQ.StoreQueueDepth = -2
	bad = append(bad, negSQ)
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	for _, p := range roundTripPorts() {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", p.Key(), err)
		}
	}
}

func TestCustomPortSerialization(t *testing.T) {
	p := lbic.CustomPort("my-arbiter", func(int) (lbic.Arbiter, error) { return nil, nil })
	if got := p.Name(); got != "custom-my-arbiter" {
		t.Errorf("Name() = %q", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if _, err := json.Marshal(p); err == nil {
		t.Error("marshaling a custom port should fail (factory cannot serialize)")
	}
	var back lbic.PortConfig
	if err := json.Unmarshal([]byte(`{"kind":"custom"}`), &back); err == nil {
		t.Error("unmarshaling kind custom should fail")
	}
	if _, err := lbic.ParsePortName(p.Key()); err == nil {
		t.Error("parsing a custom port name should fail")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cpuCfg := lbic.DefaultCPUConfig()
	cpuCfg.FetchWidth = 16
	memCfg := lbic.DefaultMemParams()
	cfg := lbic.Config{
		Port:     lbic.LBICPort(4, 2),
		MaxInsts: 250_000,
		CPU:      &cpuCfg,
		Mem:      &memCfg,
		Verify:   true,
		// Process-local fields must not leak into the serialization.
		Trace: lbic.NewTraceCache(0),
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "Trace") || strings.Contains(string(raw), "trace") {
		t.Errorf("serialized config leaks process-local fields: %s", raw)
	}
	var back lbic.Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Port, cfg.Port) || back.MaxInsts != cfg.MaxInsts || back.Verify != cfg.Verify {
		t.Errorf("round trip: %+v != %+v", back, cfg)
	}
	if back.CPU == nil || back.CPU.FetchWidth != 16 {
		t.Errorf("CPU override lost: %+v", back.CPU)
	}
	if back.Mem == nil || *back.Mem != memCfg {
		t.Errorf("Mem override lost: %+v", back.Mem)
	}
	if back.Trace != nil || back.Events != nil {
		t.Error("process-local fields must stay nil after unmarshal")
	}
}

func TestConfigValidateRejectsBadOverrides(t *testing.T) {
	cfg := lbic.DefaultConfig()
	cfg.Port = lbic.BankedPort(3)
	if err := cfg.Validate(); err == nil {
		t.Error("bad port accepted")
	}
	cfg = lbic.DefaultConfig()
	badCPU := lbic.DefaultCPUConfig()
	badCPU.FetchWidth = -1
	cfg.CPU = &badCPU
	if err := cfg.Validate(); err == nil {
		t.Error("bad CPU override accepted")
	}
}

func TestSelectorKindText(t *testing.T) {
	for _, k := range []lbic.BankSelectorKind{lbic.BitSelect, lbic.XorFold, lbic.WordInterleave} {
		raw, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back lbic.BankSelectorKind
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("selector %v -> %s -> %v", k, raw, back)
		}
	}
	var k lbic.BankSelectorKind
	if err := json.Unmarshal([]byte(`"hash-o-matic"`), &k); err == nil {
		t.Error("unknown selector accepted")
	}
}
