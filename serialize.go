package lbic

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the one serialization the CLI (`lbicsim -config`), the lbicd
// service schema (`lbic-sim-request/v1`), and sweep journals share:
// PortKind and BankSelectorKind marshal as their canonical name tokens,
// PortConfig/Config carry JSON tags and Validate methods, and ParsePortName
// inverts PortConfig.Key for the compact one-line form. Every per-kind rule
// here — token, grammar, validation — comes from the port-organization
// registry (registry.go); this file only owns the kind-independent framing
// (the "-sqD" store-queue suffix and the common depth check).

// MarshalText encodes the kind as its canonical name token ("true", "repl",
// "bank", "lbic", "virt", "banksq", "mpb", "coded"). Custom kinds fail: a
// custom port's factory is a function and cannot cross a serialization
// boundary.
func (k PortKind) MarshalText() ([]byte, error) {
	o, ok := portOrgFor(k)
	if !ok {
		return nil, fmt.Errorf("lbic: unknown port kind %d", int(k))
	}
	if !o.wire {
		return nil, fmt.Errorf("lbic: custom ports do not serialize (the arbiter factory is a function)")
	}
	return []byte(o.token), nil
}

// UnmarshalText is the inverse of MarshalText; "ideal" is accepted as an
// alias for "true".
func (k *PortKind) UnmarshalText(text []byte) error {
	name := string(text)
	if o, ok := portOrgByToken(name); ok {
		if !o.wire {
			return fmt.Errorf("lbic: custom ports do not deserialize (the arbiter factory is a function)")
		}
		*k = o.kind
		return nil
	}
	return fmt.Errorf("lbic: unknown port kind %q (have %s)", name, strings.Join(portTokens(), ", "))
}

// ParsePortName parses the compact one-line port serialization produced by
// PortConfig.Key (and therefore also the Name form, which omits the
// store-queue suffix): "true-4", "repl-2", "bank-8", "bank-8-xor-fold",
// "banksq-8", "banksq-8-sq4", "lbic-4x2", "lbic-4x2-greedy", "virt-2",
// "mpb-2x2", "coded-4x1", "coded-4x2-lb2", "coded-4x1-spec", with an
// optional trailing "-sqD" store-queue depth override. "ideal-N" is accepted
// as an alias for "true-N". The per-kind grammar is registry-derived; custom
// port names are not parseable — the factory cannot be reconstructed from a
// string.
func ParsePortName(name string) (PortConfig, error) {
	orig := name
	fail := func() (PortConfig, error) {
		return PortConfig{}, fmt.Errorf("lbic: cannot parse port name %q (want e.g. true-4, repl-2, bank-8[-xor-fold], lbic-4x2[-greedy], virt-2, banksq-8, mpb-2x2, coded-4x1[-lbN][-spec], optionally -sqD)", orig)
	}

	// Peel a trailing "-sqD" store-queue depth override. The only kind token
	// containing "sq" is "banksq", whose Key never has a bare "-sq" substring
	// ("banksq-8" — the "sq" is not preceded by '-'), so this is unambiguous.
	var depth int
	if i := strings.LastIndex(name, "-sq"); i >= 0 {
		if d, err := strconv.Atoi(name[i+3:]); err == nil && d > 0 {
			depth = d
			name = name[:i]
		}
	}

	kindTok, rest, ok := strings.Cut(name, "-")
	if !ok {
		return fail()
	}
	o, ok := portOrgByToken(kindTok)
	if !ok || o.parse == nil {
		return fail()
	}
	p, ok := o.parse(rest)
	if !ok {
		return fail()
	}
	p.StoreQueueDepth = depth
	if err := p.Validate(); err != nil {
		return PortConfig{}, fmt.Errorf("lbic: port name %q: %w", orig, err)
	}
	return p, nil
}

// powerOfTwo reports whether n is a positive power of two.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// maxPortSize caps every dimension of a port organization and its peak
// width. Both size allocations (per-bank arbiter state, the core's grant
// histogram, the report's buckets), so without a cap one port name could
// claim memory in proportion to its digits. The repository runs at most 64
// banks.
const maxPortSize = 1024

// Validate checks the configuration's parameters against its kind's
// structural rules (registry-derived), mirroring what the arbiter
// constructors enforce at build time so a bad config fails fast at the
// serialization boundary.
func (p PortConfig) Validate() error {
	if p.StoreQueueDepth < 0 {
		return fmt.Errorf("lbic: store queue depth %d is negative", p.StoreQueueDepth)
	}
	o, ok := portOrgFor(p.Kind)
	if !ok {
		return fmt.Errorf("lbic: unknown port kind %d", int(p.Kind))
	}
	if err := p.checkSize(o); err != nil {
		return err
	}
	return o.validate(p)
}

// checkSize enforces maxPortSize on every dimension and on the peak width.
// Validate and the arbiter build both apply it.
func (p PortConfig) checkSize(o *portOrg) error {
	for _, dim := range []struct {
		name string
		n    int
	}{
		{"width", p.Width}, {"bank count", p.Banks}, {"line ports", p.LinePorts},
		{"parity bank count", p.ParityBanks}, {"store queue depth", p.StoreQueueDepth},
	} {
		if dim.n > maxPortSize {
			return fmt.Errorf("lbic: port %s %d exceeds the limit of %d", dim.name, dim.n, maxPortSize)
		}
	}
	if peak := o.peak(p); peak > maxPortSize {
		return fmt.Errorf("lbic: %s peak width %d exceeds the limit of %d", p.Kind, peak, maxPortSize)
	}
	return nil
}

// Validate checks the full simulation configuration: the port organization
// plus any CPU and memory-hierarchy overrides.
func (c Config) Validate() error {
	if err := c.Port.Validate(); err != nil {
		return err
	}
	if c.CPU != nil {
		if err := c.CPU.Validate(); err != nil {
			return err
		}
	}
	if c.Mem != nil {
		if err := c.Mem.Validate(); err != nil {
			return err
		}
	}
	return nil
}
