package ports

import "fmt"

// MultiPortedBanks generalizes the taxonomy's two practical axes into one
// design: M line-interleaved banks, each with P true ports, the kind of
// combination Sohi and Franklin propose in the study the paper builds on
// (§7: "different configurations, combinations and implementations of
// multi-ported and multi-bank caches"). M=1 degenerates to ideal
// multi-porting; P=1 to the traditional banked cache. Unlike the LBIC, the
// P ports serve any P requests in the bank — at true multi-porting's area
// cost per bank rather than a line buffer's.
type MultiPortedBanks struct {
	sel   BankSelector
	ports int
	used  []int

	// Conflicts counts requests stalled on a saturated bank.
	Conflicts uint64

	bankAccess   []uint64
	bankConflict []uint64
}

// NewMultiPortedBanks returns an M-bank, P-ports-per-bank arbiter.
func NewMultiPortedBanks(banks, portsPerBank, lineSize int) (*MultiPortedBanks, error) {
	if portsPerBank < 1 {
		return nil, fmt.Errorf("ports: ports per bank %d is not positive", portsPerBank)
	}
	sel, err := NewBankSelector(banks, lineSize)
	if err != nil {
		return nil, err
	}
	return &MultiPortedBanks{
		sel:          sel,
		ports:        portsPerBank,
		used:         make([]int, banks),
		bankAccess:   make([]uint64, banks),
		bankConflict: make([]uint64, banks),
	}, nil
}

// BankAccesses implements BankObserver: grants per bank.
func (a *MultiPortedBanks) BankAccesses() []uint64 { return append([]uint64(nil), a.bankAccess...) }

// BankConflicts implements BankObserver: stalled requests per bank.
func (a *MultiPortedBanks) BankConflicts() []uint64 { return append([]uint64(nil), a.bankConflict...) }

// Selector returns the bank selection function.
func (a *MultiPortedBanks) Selector() BankSelector { return a.sel }

// PortsPerBank returns P, the true ports per bank.
func (a *MultiPortedBanks) PortsPerBank() int { return a.ports }

// Name implements Arbiter, e.g. "mpb-4x2" (4 banks, 2 ports each).
func (a *MultiPortedBanks) Name() string {
	return fmt.Sprintf("mpb-%dx%d", a.sel.Banks(), a.ports)
}

// PeakWidth implements Arbiter.
func (a *MultiPortedBanks) PeakWidth() int { return a.sel.Banks() * a.ports }

// Quiescent implements Quiescer: the arbiter carries no cross-cycle state.
func (a *MultiPortedBanks) Quiescent() bool { return true }

// Grant implements Arbiter: oldest-first, each bank serving up to P
// requests per cycle regardless of their lines.
func (a *MultiPortedBanks) Grant(_ uint64, ready []Request, dst []int) []int {
	for i := range a.used {
		a.used[i] = 0
	}
	var conflicts uint64
	for i := range ready {
		b := a.sel.BankOf(ready[i].Addr)
		if a.used[b] >= a.ports {
			conflicts++
			a.bankConflict[b]++
			continue
		}
		a.used[b]++
		a.bankAccess[b]++
		dst = append(dst, i)
	}
	a.Conflicts += conflicts
	return dst
}
