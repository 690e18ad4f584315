package lbic

import "lbic/internal/ports"

// Arbiter is the cache-port arbitration contract: given the age-ordered
// ready memory requests of a cycle, select which access the cache. All four
// built-in organizations implement it; user code can supply its own via
// CustomPort to explore designs beyond the paper's.
type Arbiter = ports.Arbiter

// Request is one memory operation competing for a cache port.
type Request = ports.Request

// NewBankSelector returns the paper's bit-selection bank mapping for custom
// arbiters that want line-interleaved banking semantics.
func NewBankSelector(banks, lineSize int) (ports.BankSelector, error) {
	return ports.NewBankSelector(banks, lineSize)
}

// customPortKind marks PortConfigs created by CustomPort.
const customPortKind PortKind = -1

// CustomPort wraps a user-supplied arbiter factory as a PortConfig. The
// factory is invoked once per simulation (arbiters are stateful), with the
// L1 line size of the configured memory hierarchy. The label distinguishes
// this arbiter from other custom ports in names, sweep cell keys, and the
// lbicd result cache — two custom ports with different behaviour
// must carry different labels, or their results collide under one key.
func CustomPort(label string, factory func(lineSize int) (Arbiter, error)) PortConfig {
	return PortConfig{Kind: customPortKind, Label: label, custom: factory}
}
