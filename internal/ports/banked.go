package ports

import (
	"fmt"

	"lbic/internal/trace"
)

// Banked models a traditional multi-bank (interleaved) cache (§3.2, Fig 2b):
// the cache is split into M single-ported banks, line-interleaved by the
// bit-selection function, and a crossbar distributes requests. Each bank
// independently services one request per cycle; two ready requests whose
// lines live in the same bank conflict and the younger one waits, even when
// both touch the same line — the limitation the LBIC removes.
type Banked struct {
	sel   BankSelector
	busy  []bool
	lines []uint64 // line granted per bank this cycle, for conflict stats
	// Conflicts counts requests that stalled on a busy bank.
	Conflicts uint64
	// SameLineConflicts counts the stalled requests whose line matched the
	// line already granted in that bank — the same-line conflicts §4 shows
	// dominate (and that combining recovers).
	SameLineConflicts uint64

	bankAccess   []uint64
	bankConflict []uint64
	bankSameLine []uint64
	events       trace.EventSink
}

// NewBanked returns a multi-bank arbiter with the given bank count and line
// size, using the paper's bit-selection bank function.
func NewBanked(banks, lineSize int) (*Banked, error) {
	return NewBankedSelector(banks, lineSize, BitSelect)
}

// NewBankedSelector returns a multi-bank arbiter with an explicit bank
// selection function (for the §3.2 selection-function ablation).
func NewBankedSelector(banks, lineSize int, kind SelectorKind) (*Banked, error) {
	sel, err := NewBankSelectorKind(banks, lineSize, kind)
	if err != nil {
		return nil, err
	}
	return &Banked{
		sel:          sel,
		busy:         make([]bool, banks),
		lines:        make([]uint64, banks),
		bankAccess:   make([]uint64, banks),
		bankConflict: make([]uint64, banks),
		bankSameLine: make([]uint64, banks),
	}, nil
}

// Name implements Arbiter.
func (a *Banked) Name() string {
	if a.sel.Kind() != BitSelect {
		return fmt.Sprintf("bank-%d-%s", a.sel.Banks(), a.sel.Kind())
	}
	return fmt.Sprintf("bank-%d", a.sel.Banks())
}

// PeakWidth implements Arbiter.
func (a *Banked) PeakWidth() int { return a.sel.Banks() }

// Quiescent implements Quiescer: the arbiter carries no cross-cycle state.
func (a *Banked) Quiescent() bool { return true }

// Selector returns the bank selection function.
func (a *Banked) Selector() BankSelector { return a.sel }

// SetEventSink implements EventRecorder.
func (a *Banked) SetEventSink(s trace.EventSink) { a.events = s }

// BankAccesses implements BankObserver: grants per bank.
func (a *Banked) BankAccesses() []uint64 { return append([]uint64(nil), a.bankAccess...) }

// BankConflicts implements BankObserver: stalled requests per bank.
func (a *Banked) BankConflicts() []uint64 { return append([]uint64(nil), a.bankConflict...) }

// BankSameLineConflicts returns, per bank, the stalled requests whose line
// matched the already-granted line — the §4 same-line share.
func (a *Banked) BankSameLineConflicts() []uint64 { return append([]uint64(nil), a.bankSameLine...) }

// Grant implements Arbiter: scan oldest-first, granting each request whose
// bank is still free this cycle. The conflict totals are kept in locals: the
// compiler cannot hold a field in a register across the slice stores.
func (a *Banked) Grant(now uint64, ready []Request, dst []int) []int {
	for i := range a.busy {
		a.busy[i] = false
	}
	var conflicts, sameLine uint64
	for i := range ready {
		b := a.sel.BankOf(ready[i].Addr)
		line := a.sel.LineOf(ready[i].Addr)
		if a.busy[b] {
			conflicts++
			a.bankConflict[b]++
			cause := "bank-busy"
			if a.lines[b] == line {
				sameLine++
				a.bankSameLine[b]++
				cause = "same-line"
			}
			if a.events != nil {
				a.events.Emit(trace.Event{Cycle: now, Kind: trace.EvConflict,
					Seq: int64(ready[i].Seq), Bank: b, Line: line, Cause: cause})
			}
			continue
		}
		a.busy[b] = true
		a.lines[b] = line
		a.bankAccess[b]++
		dst = append(dst, i)
	}
	a.Conflicts += conflicts
	a.SameLineConflicts += sameLine
	return dst
}
