package ports

import "fmt"

// NewBankedSelector returns a traditional multi-bank (interleaved) cache
// (§3.2, Fig 2b) with the given bank count, line size and bank selection
// function: the paper's BitSelect, or another for the §3.2
// selection-function ablation. The cache is split into M single-ported
// banks and a crossbar distributes requests.
// Each bank services one request per cycle; two ready requests whose lines
// live in the same bank conflict and the younger one waits, even when both
// touch the same line — the limitation the LBIC removes.
func NewBankedSelector(banks, lineSize int, kind SelectorKind) (*Banks, error) {
	sel, err := NewBankSelectorKind(banks, lineSize, kind)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("bank-%d", banks)
	if kind != BitSelect {
		name = fmt.Sprintf("bank-%d-%s", banks, kind)
	}
	a := newBanks(Params{Org: OrgBank, Banks: banks, PortsPerBank: 1}, sel, name, banks)
	a.sameLine = make([]uint64, banks)
	return a, nil
}

// grantBank grants each request whose bank is still free this cycle.
func (a *Banks) grantBank(now uint64, ready []Request, dst []int) []int {
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		line := a.sel.LineOf(r.Addr)
		c := &a.cyc[b]
		if c.busy {
			if c.open == line {
				a.sameLine[b]++
				a.stall(now, r, b, "same-line")
			} else {
				a.stall(now, r, b, "bank-busy")
			}
			continue
		}
		c.busy, c.open = true, line
		a.accesses[b]++
		dst = append(dst, i)
	}
	return dst
}
