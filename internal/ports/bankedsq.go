package ports

import (
	"fmt"
	"strings"
)

// BankedSQ is a multi-bank cache whose banks each carry a store queue, in
// the style of the HP PA8000 the paper cites (§5.2: "the LBIC relies on a
// store queue in each bank, as some current multi-bank implementations do
// [18]"). Stores deposit into their bank's queue when granted (coalescing by
// line) and the queues retire one line per idle bank cycle, so a store burst
// does not monopolize a bank's port the way it does in the plain banked
// design. There is no line buffer and no combining: this isolates how much
// of the LBIC's win comes from the store queues alone, and how much from
// combining.
type BankedSQ struct {
	sel      BankSelector
	depth    int
	busy     []bool
	accepted []bool // a store was accepted into this bank's queue this cycle
	storeQ   []LineQueue

	// Conflicts counts requests stalled on a busy bank.
	Conflicts uint64
	// StoreDrains counts store-queue lines retired on idle cycles.
	StoreDrains uint64
	// DirectStores counts stores that wrote the array directly because
	// their bank's queue was full.
	DirectStores uint64

	bankAccess   []uint64
	bankConflict []uint64
}

// NewBankedSQ returns a banked arbiter with per-bank store queues of the
// given line depth (0 selects depth 8).
func NewBankedSQ(banks, lineSize, depth int) (*BankedSQ, error) {
	if depth == 0 {
		depth = 8
	}
	if depth < 1 {
		return nil, fmt.Errorf("ports: store queue depth %d is not positive", depth)
	}
	sel, err := NewBankSelector(banks, lineSize)
	if err != nil {
		return nil, err
	}
	return &BankedSQ{
		sel:          sel,
		depth:        depth,
		busy:         make([]bool, banks),
		accepted:     make([]bool, banks),
		storeQ:       make([]LineQueue, banks),
		bankAccess:   make([]uint64, banks),
		bankConflict: make([]uint64, banks),
	}, nil
}

// BankAccesses implements BankObserver: grants per bank (array accesses and
// store-queue acceptances).
func (a *BankedSQ) BankAccesses() []uint64 { return append([]uint64(nil), a.bankAccess...) }

// BankConflicts implements BankObserver: stalled requests per bank.
func (a *BankedSQ) BankConflicts() []uint64 { return append([]uint64(nil), a.bankConflict...) }

// Name implements Arbiter.
func (a *BankedSQ) Name() string { return fmt.Sprintf("banksq-%d", a.sel.Banks()) }

// PeakWidth implements Arbiter: each bank can serve one array access and
// accept one store into its queue in the same cycle, so the ceiling is two
// grants per bank.
func (a *BankedSQ) PeakWidth() int { return 2 * a.sel.Banks() }

// StoreQueueLen returns the lines queued in bank b's store queue.
func (a *BankedSQ) StoreQueueLen(b int) int { return a.storeQ[b].Len() }

// StoreQueueLines appends bank b's queued lines, front first, to dst and
// returns the extended slice (see LBIC.StoreQueueLines).
func (a *BankedSQ) StoreQueueLines(b int, dst []uint64) []uint64 {
	return a.storeQ[b].Lines(dst)
}

// Quiescent implements Quiescer: with every store queue empty, an idle cycle
// neither drains nor changes state.
func (a *BankedSQ) Quiescent() bool {
	for b := range a.storeQ {
		if a.storeQ[b].Len() > 0 {
			return false
		}
	}
	return true
}

// Selector returns the bank selection function.
func (a *BankedSQ) Selector() BankSelector { return a.sel }

// DumpState implements StateDumper: per-bank store-queue occupancy for hang
// diagnostics.
func (a *BankedSQ) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", a.Name())
	for bank := range a.storeQ {
		fmt.Fprintf(&b, " bank%d[sq %d/%d]", bank, a.storeQ[bank].Len(), a.depth)
	}
	return b.String()
}

// Depth returns the per-bank store queue capacity.
func (a *BankedSQ) Depth() int { return a.depth }

func (a *BankedSQ) enqueue(b int, line uint64) bool {
	q := &a.storeQ[b]
	if q.Contains(line) {
		return true
	}
	if q.Len() >= a.depth {
		return false
	}
	q.Push(line)
	return true
}

// Grant implements Arbiter, oldest first. Loads take their bank's single
// array port (one per bank per cycle). A store is accepted into its bank's
// queue — one acceptance per bank per cycle, no array port needed — so
// stores stop competing with loads; the queue retires one line per idle bank
// cycle. Only when the queue is full does a store fall back to a direct
// array write, occupying the bank like a plain banked store.
func (a *BankedSQ) Grant(_ uint64, ready []Request, dst []int) []int {
	for i := range a.busy {
		a.busy[i] = false
		a.accepted[i] = false
	}
	var conflicts, direct uint64
	for i := range ready {
		b := a.sel.BankOf(ready[i].Addr)
		if ready[i].Store {
			if !a.accepted[b] && a.enqueue(b, a.sel.LineOf(ready[i].Addr)) {
				a.accepted[b] = true
				a.bankAccess[b]++
				dst = append(dst, i)
				continue
			}
			// Queue full (or acceptance used): direct write via the port.
			if a.busy[b] {
				conflicts++
				a.bankConflict[b]++
				continue
			}
			a.busy[b] = true
			direct++
			a.bankAccess[b]++
			dst = append(dst, i)
			continue
		}
		if a.busy[b] {
			conflicts++
			a.bankConflict[b]++
			continue
		}
		a.busy[b] = true
		a.bankAccess[b]++
		dst = append(dst, i)
	}
	a.Conflicts += conflicts
	a.DirectStores += direct
	// Idle banks (no array access and no queue acceptance this cycle)
	// retire one queued line.
	for b := range a.storeQ {
		if !a.busy[b] && !a.accepted[b] && a.storeQ[b].Len() > 0 {
			a.storeQ[b].PopFront()
			a.StoreDrains++
		}
	}
	return dst
}
