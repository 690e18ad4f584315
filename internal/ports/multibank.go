package ports

import "fmt"

// NewMultiPortedBanks returns an M-bank, P-ports-per-bank arbiter. It
// generalizes the taxonomy's two practical axes into one design, the kind of
// combination Sohi and Franklin propose in the study the paper builds on
// (§7: "different configurations, combinations and implementations of
// multi-ported and multi-bank caches"). M=1 degenerates to ideal
// multi-porting; P=1 to the traditional banked cache. Unlike the LBIC, the P
// ports serve any P requests in the bank — at true multi-porting's area cost
// per bank rather than a line buffer's.
func NewMultiPortedBanks(banks, portsPerBank, lineSize int) (*Banks, error) {
	if portsPerBank < 1 {
		return nil, fmt.Errorf("ports: ports per bank %d is not positive", portsPerBank)
	}
	sel, err := NewBankSelector(banks, lineSize)
	if err != nil {
		return nil, err
	}
	return newBanks(Params{Org: OrgMPB, Banks: banks, PortsPerBank: portsPerBank}, sel,
		fmt.Sprintf("mpb-%dx%d", banks, portsPerBank), banks*portsPerBank), nil
}

// grantMPB lets each bank serve up to P requests per cycle, regardless of
// their lines.
func (a *Banks) grantMPB(now uint64, ready []Request, dst []int) []int {
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		c := &a.cyc[b]
		if int(c.count) >= a.p.PortsPerBank {
			a.stall(now, r, b, "bank-busy")
			continue
		}
		c.count++
		a.accesses[b]++
		dst = append(dst, i)
	}
	return dst
}
