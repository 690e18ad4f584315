// Package ports implements the cache port organizations: the three
// conventional ones the paper evaluates in §3, ideal multi-porting (True),
// multi-porting by replication (Repl, DEC 21164-style) and multi-banking
// (Bank, MIPS R10000-style line-interleaved); the paper's proposed LBIC
// (§5); and the extensions beside them (virtual multi-porting, banks with
// store queues, multi-ported banks, coded banks). Every bank-organized
// design is one type, Banks, whose organizations differ only in their
// constructor and grant loop.
package ports

import "fmt"

// Request is one memory operation competing for a cache port this cycle.
type Request struct {
	// Seq is the program-order sequence number; ready lists handed to
	// arbiters must be sorted ascending by Seq (oldest first).
	Seq uint64
	// Addr is the effective address.
	Addr uint64
	// Store distinguishes stores (which broadcast in replicated designs and
	// enter per-bank store queues in the LBIC) from loads.
	Store bool
}

// Arbiter selects which of the ready requests may access the cache in one
// cycle. Implementations are stateful only where the modeled hardware is
// (e.g. LBIC store queues); Grant is called exactly once per cycle.
type Arbiter interface {
	// Name returns a short identifier, e.g. "ideal-4" or "lbic-4x2".
	Name() string
	// PeakWidth returns the maximum number of grants per cycle.
	PeakWidth() int
	// Grant appends to dst the indices into ready (age-ordered, oldest
	// first) of the requests that access the cache this cycle, and returns
	// the extended slice. Granted indices are strictly increasing.
	Grant(now uint64, ready []Request, dst []int) []int
}

// Quiescer is implemented by arbiters that can prove they hold no deferred
// work: given an empty ready list, Grant would neither return a grant nor
// change observable state. Stateless designs are always quiescent; queueing
// designs (the LBIC, banks with store queues, coded banks) are quiescent
// when every queue is empty. The core only fast-forwards across idle cycles
// when the arbiter reports quiescence — an arbiter that does not implement
// the interface disables fast-forward.
type Quiescer interface {
	Quiescent() bool
}

// StateDumper is implemented by stateful arbiters that can describe their
// internal queues in one line. The forward-progress watchdog includes the
// dump in its hang diagnostics, so a starved bank or a store queue that
// never drains is visible from the error alone.
type StateDumper interface {
	DumpState() string
}

// SelectorKind chooses the bank selection function — how an address maps to
// a bank. §3.2 of the paper discusses the tradeoffs.
type SelectorKind int

const (
	// BitSelect is the paper's default (Fig 2c): the bank number is the low
	// bits of the line address, giving a line-interleaved layout. Simple
	// and fast, but regular strides can concentrate on one bank.
	BitSelect SelectorKind = iota
	// XorFold hashes the line address by folding its higher bits onto the
	// bank bits with XOR — a cheap pseudo-random interleaving in the spirit
	// of Rau's work the paper cites [11]. It decorrelates strides but, as
	// §4 predicts, cannot remove same-line conflicts.
	XorFold
	// WordInterleave banks at 8-byte word granularity, as vector machines
	// do: consecutive words of one line live in successive banks. It
	// removes same-line bank conflicts entirely, but a real implementation
	// must replicate or multi-port the tag store (the cost §4 of the paper
	// rejects for caches) — so it serves here as an ablation point, not a
	// practical design.
	WordInterleave
)

// String returns the selector's name.
func (k SelectorKind) String() string {
	switch k {
	case BitSelect:
		return "bit-select"
	case XorFold:
		return "xor-fold"
	case WordInterleave:
		return "word-interleave"
	default:
		return "selector(?)"
	}
}

// MarshalText encodes the selector as its canonical name, so SelectorKind
// fields serialize readably in JSON configs and service requests.
func (k SelectorKind) MarshalText() ([]byte, error) {
	switch k {
	case BitSelect, XorFold, WordInterleave:
		return []byte(k.String()), nil
	}
	return nil, fmt.Errorf("ports: unknown selector kind %d", int(k))
}

// UnmarshalText is the inverse of MarshalText.
func (k *SelectorKind) UnmarshalText(text []byte) error {
	p, err := ParseSelectorKind(string(text))
	if err != nil {
		return err
	}
	*k = p
	return nil
}

// ParseSelectorKind maps a canonical selector name back to its kind.
func ParseSelectorKind(name string) (SelectorKind, error) {
	switch name {
	case "bit-select":
		return BitSelect, nil
	case "xor-fold":
		return XorFold, nil
	case "word-interleave":
		return WordInterleave, nil
	}
	return 0, fmt.Errorf("ports: unknown selector kind %q (have bit-select, xor-fold, word-interleave)", name)
}

// BankSelector maps addresses to banks. It has at most four fields, so the
// compiler keeps an inlined BankOf's copy of it in registers.
type BankSelector struct {
	kind     SelectorKind
	lineBits uint
	bankBits uint
	bankMask uint64
}

// NewBankSelector returns a bit-select selector for the given bank count and
// line size, both powers of two — the paper's configuration.
func NewBankSelector(banks, lineSize int) (BankSelector, error) {
	return NewBankSelectorKind(banks, lineSize, BitSelect)
}

// NewBankSelectorKind returns a selector with an explicit selection function.
func NewBankSelectorKind(banks, lineSize int, kind SelectorKind) (BankSelector, error) {
	if banks <= 0 || banks&(banks-1) != 0 {
		return BankSelector{}, fmt.Errorf("ports: bank count %d is not a positive power of two", banks)
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return BankSelector{}, fmt.Errorf("ports: line size %d is not a positive power of two", lineSize)
	}
	lb, bb := uint(0), uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	for 1<<bb < banks {
		bb++
	}
	return BankSelector{kind: kind, lineBits: lb, bankBits: bb, bankMask: uint64(banks - 1)}, nil
}

// Banks returns the number of banks.
func (s BankSelector) Banks() int { return int(s.bankMask) + 1 }

// Kind returns the selection function in use.
func (s BankSelector) Kind() SelectorKind { return s.kind }

// BankOf returns the bank holding addr (for WordInterleave, the bank holding
// addr's word).
func (s BankSelector) BankOf(addr uint64) int {
	switch s.kind {
	case XorFold:
		line := addr >> s.lineBits
		h := line
		h ^= line >> s.bankBits
		h ^= line >> (2 * s.bankBits)
		h ^= line >> (3 * s.bankBits)
		return int(h & s.bankMask)
	case WordInterleave:
		return int((addr >> 3) & s.bankMask)
	default:
		return int((addr >> s.lineBits) & s.bankMask)
	}
}

// LineOf returns addr's global line number; two addresses with equal LineOf
// share a cache line.
func (s BankSelector) LineOf(addr uint64) uint64 {
	return addr >> s.lineBits
}
