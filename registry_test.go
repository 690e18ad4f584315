package lbic

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRegistryRoundTripAllKinds is the registry's contract property: every
// registered wire kind's axis and grammar-corner samples must survive
// Key -> ParsePortName and JSON marshal -> unmarshal unchanged, validate,
// and name themselves under their kind's token. A kind that round-trips here
// needs no edits outside its registry entry.
func TestRegistryRoundTripAllKinds(t *testing.T) {
	samples := portSamples()
	if len(samples) == 0 {
		t.Fatal("registry has no sample configurations")
	}
	covered := map[PortKind]bool{}
	for _, p := range samples {
		covered[p.Kind] = true
		key := p.Key()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", key, err)
			continue
		}
		o, ok := portOrgFor(p.Kind)
		if !ok {
			t.Errorf("%s: kind %d not registered", key, int(p.Kind))
			continue
		}
		if !strings.HasPrefix(p.Name(), o.token+"-") {
			t.Errorf("%s: Name %q does not start with token %q", key, p.Name(), o.token)
		}
		back, err := ParsePortName(key)
		if err != nil {
			t.Errorf("ParsePortName(%q): %v", key, err)
		} else if !reflect.DeepEqual(back, p) {
			t.Errorf("ParsePortName(%q) = %+v, want %+v", key, back, p)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Errorf("%s: marshal: %v", key, err)
			continue
		}
		var jback PortConfig
		if err := json.Unmarshal(raw, &jback); err != nil {
			t.Errorf("%s: unmarshal %s: %v", key, raw, err)
		} else if !reflect.DeepEqual(jback, p) {
			t.Errorf("%s: JSON round trip %s -> %+v != %+v", key, raw, jback, p)
		}
		arb, err := buildArbiter(p, 32)
		if err != nil {
			t.Errorf("%s: buildArbiter: %v", key, err)
			continue
		}
		if got, want := arb.PeakWidth(), p.PeakWidth(); got != want {
			t.Errorf("%s: arbiter peak width %d, registry says %d", key, got, want)
		}
	}
	for _, info := range PortOrganizations() {
		if info.Wire && !covered[info.Kind] {
			t.Errorf("registered kind %s (%s) has no round-trip sample", info.Display, info.Token)
		}
	}
}

// TestRegistryCompleteness pins the registry's structural invariants: every
// PortKind constant registered exactly once, unique tokens, a display name,
// and a schema that always lists the kind discriminator.
func TestRegistryCompleteness(t *testing.T) {
	infos := PortOrganizations()
	kinds := []PortKind{Ideal, Replicated, Banked, LBIC, VirtualMultiport,
		BankedStoreQueue, MultiPortedBanks, Coded, customPortKind}
	if len(infos) != len(kinds) {
		t.Errorf("registry lists %d organizations, want %d", len(infos), len(kinds))
	}
	seenKind := map[PortKind]bool{}
	seenToken := map[string]bool{}
	for _, info := range infos {
		if seenKind[info.Kind] {
			t.Errorf("kind %s registered twice", info.Display)
		}
		seenKind[info.Kind] = true
		if seenToken[info.Token] {
			t.Errorf("token %q registered twice", info.Token)
		}
		seenToken[info.Token] = true
		if info.Display == "" || info.Token == "" {
			t.Errorf("entry %+v missing token or display name", info)
		}
		if len(info.Schema) == 0 || info.Schema[0] != "kind" {
			t.Errorf("%s: schema %v must lead with the kind discriminator", info.Token, info.Schema)
		}
	}
	for _, k := range kinds {
		if !seenKind[k] {
			t.Errorf("kind %v not registered", k)
		}
	}
	axis := PortAxis()
	if len(axis) == 0 {
		t.Fatal("empty default port axis")
	}
	for _, p := range axis {
		if err := p.Validate(); err != nil {
			t.Errorf("axis config %s: %v", p.Key(), err)
		}
	}
	// Coded must be on the default axis: the sweeps and workload tables
	// derive their columns from it.
	found := false
	for _, p := range axis {
		if p.Kind == Coded {
			found = true
		}
	}
	if !found {
		t.Error("default port axis omits the coded organization")
	}
}
