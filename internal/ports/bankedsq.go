package ports

import "fmt"

// NewBankedSQ returns a multi-bank cache whose banks each carry a store
// queue of the given line depth (0 selects depth 8), in the style of the HP
// PA8000 the paper cites (§5.2: "the LBIC relies on a store queue in each
// bank, as some current multi-bank implementations do [18]"). Stores deposit
// into their bank's queue when granted (coalescing by line) and the queues
// retire one line per idle bank cycle, so a store burst does not monopolize
// a bank's port the way it does in the plain banked design. There is no line
// buffer and no combining: this isolates how much of the LBIC's win comes
// from the store queues alone, and how much from combining.
func NewBankedSQ(banks, lineSize, depth int) (*Banks, error) {
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
	// Each bank can serve one array access and accept one store into its
	// queue in the same cycle, so the ceiling is two grants per bank.
	return newBanks(Params{Org: OrgBankSQ, Banks: banks, PortsPerBank: 1, Depth: depth}, sel,
		fmt.Sprintf("banksq-%d", banks), 2*banks), nil
}

// grantBankSQ grants loads the bank's single array port. A store is
// accepted into its bank's queue — one acceptance per bank per cycle, no
// array port needed — so stores stop competing with loads. Only when the
// queue is full (or its acceptance is used) does a store fall back to a
// direct array write, occupying the bank like a plain banked store.
func (a *Banks) grantBankSQ(now uint64, ready []Request, dst []int) []int {
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		c := &a.cyc[b]
		if r.Store {
			if !c.accepted && a.queues[b].Offer(a.sel.LineOf(r.Addr), a.p.Depth) {
				c.accepted = true
				a.accesses[b]++
				dst = append(dst, i)
				continue
			}
			if !c.busy {
				a.stats.DirectStores++ // granted below, through the port
			}
		}
		if c.busy {
			// Only the event names the cause; the counters do not split it.
			cause := "bank-busy"
			if a.events != nil && c.open == a.sel.LineOf(r.Addr) {
				cause = "same-line"
			}
			a.stall(now, r, b, cause)
			continue
		}
		c.busy, c.open = true, a.sel.LineOf(r.Addr)
		a.accesses[b]++
		dst = append(dst, i)
	}
	return dst
}
