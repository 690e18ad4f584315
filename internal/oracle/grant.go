package oracle

import (
	"fmt"
	"slices"

	"lbic/internal/core"
	"lbic/internal/ports"
)

// GrantValidator checks, cycle by cycle, that an arbiter's grant sets are
// structurally legal for its organization. For the organizations whose Grant
// is a pure function of the ready list (ideal, virtual, replicated, banked,
// multi-ported banks) it recomputes the exact expected set; for the
// queue-backed designs (LBIC, banked+store-queue) it asserts the structural
// rules the hardware imposes — per-bank port limits, same-line combining,
// the oldest ready request per bank always winning, and for the greedy
// LBIC the largest same-line group per bank. Unknown (custom) arbiters get
// only the generic contract checks.
type GrantValidator struct {
	arb  ports.Arbiter
	peak int

	// Per-bank scratch for bank-organized arbiters.
	used  []int
	aux   []int
	mark  []int
	seen  []bool
	lines []uint64
	// expect is the recomputed grant set for deterministic arbiters.
	expect []int
	// groups is the greedy LBIC reference's same-line groups, in order of
	// first appearance.
	groups []lineGroup
}

// lineGroup is one (bank, line) group of a ready list: the index of its
// first request and its size.
type lineGroup struct {
	bank  int
	line  uint64
	first int
	size  int
}

// NewGrantValidator returns a validator for arb.
func NewGrantValidator(arb ports.Arbiter) *GrantValidator {
	v := &GrantValidator{arb: arb, peak: arb.PeakWidth()}
	switch a := arb.(type) {
	case *ports.Banked:
		v.grow(a.Selector().Banks())
	case *ports.MultiPortedBanks:
		v.grow(a.Selector().Banks())
	case *ports.BankedSQ:
		v.grow(a.Selector().Banks())
	case *core.LBIC:
		v.grow(a.Config().Banks)
	case *ports.Coded:
		v.grow(a.Config().Banks)
	}
	return v
}

func (v *GrantValidator) grow(banks int) {
	v.used = make([]int, banks)
	v.aux = make([]int, banks)
	v.mark = make([]int, banks)
	v.seen = make([]bool, banks)
	v.lines = make([]uint64, banks)
}

// Validate checks one cycle's grant set against the ready list the arbiter
// saw. It must be called with the same now/ready the arbiter's Grant was.
func (v *GrantValidator) Validate(now uint64, ready []ports.Request, granted []int) error {
	if len(granted) > v.peak {
		return fmt.Errorf("cycle %d: %s granted %d requests, peak width is %d",
			now, v.arb.Name(), len(granted), v.peak)
	}
	prev := -1
	for _, g := range granted {
		if g <= prev || g >= len(ready) {
			return fmt.Errorf("cycle %d: %s grant indices %v are not strictly increasing within the %d ready requests",
				now, v.arb.Name(), granted, len(ready))
		}
		prev = g
	}
	for i := 1; i < len(ready); i++ {
		if ready[i].Seq <= ready[i-1].Seq {
			return fmt.Errorf("cycle %d: ready list not age-ordered: seq %d at index %d after seq %d",
				now, ready[i].Seq, i, ready[i-1].Seq)
		}
	}

	switch a := v.arb.(type) {
	case *ports.Ideal, *ports.Virtual:
		n := len(ready)
		if n > v.peak {
			n = v.peak
		}
		return v.comparePrefixN(now, n, granted)
	case *ports.Replicated:
		return v.validateReplicated(now, ready, granted)
	case *ports.Banked:
		return v.validateBanked(now, a.Selector(), 1, ready, granted)
	case *ports.MultiPortedBanks:
		return v.validateBanked(now, a.Selector(), a.PortsPerBank(), ready, granted)
	case *ports.BankedSQ:
		return v.validateBankedSQ(now, a, ready, granted)
	case *core.LBIC:
		return v.validateLBIC(now, a, ready, granted)
	case *ports.Coded:
		return v.validateCoded(now, a, ready, granted)
	}
	return nil
}

// comparePrefixN asserts granted is exactly the indices 0..n-1 (ideal and
// virtual multi-porting grant the oldest requests unconditionally).
func (v *GrantValidator) comparePrefixN(now uint64, n int, granted []int) error {
	ok := len(granted) == n
	for i := 0; ok && i < n; i++ {
		ok = granted[i] == i
	}
	if !ok {
		return fmt.Errorf("cycle %d: %s granted %v, want the oldest %d requests",
			now, v.arb.Name(), granted, n)
	}
	return nil
}

// validateReplicated recomputes the replication design's exact grant: a
// leading store broadcasts alone; otherwise the store-free prefix of loads,
// capped at the port count.
func (v *GrantValidator) validateReplicated(now uint64, ready []ports.Request, granted []int) error {
	v.expect = v.expect[:0]
	if len(ready) > 0 {
		if ready[0].Store {
			v.expect = append(v.expect, 0)
		} else {
			for i := 0; i < len(ready) && len(v.expect) < v.peak && !ready[i].Store; i++ {
				v.expect = append(v.expect, i)
			}
		}
	}
	if !equalInts(granted, v.expect) {
		return fmt.Errorf("cycle %d: %s granted %v, want %v (stores broadcast alone, loads may not pass a store)",
			now, v.arb.Name(), granted, v.expect)
	}
	return nil
}

// validateBanked recomputes the exact oldest-first bank arbitration: a
// request is granted iff fewer than perBank older requests already hold its
// bank. With perBank=1 this is the traditional banked cache; with perBank=P
// the multi-ported-banks design.
func (v *GrantValidator) validateBanked(now uint64, sel ports.BankSelector, perBank int, ready []ports.Request, granted []int) error {
	for i := range v.used {
		v.used[i] = 0
	}
	v.expect = v.expect[:0]
	for i := range ready {
		b := sel.BankOf(ready[i].Addr)
		if v.used[b] < perBank {
			v.used[b]++
			v.expect = append(v.expect, i)
		}
	}
	if !equalInts(granted, v.expect) {
		return fmt.Errorf("cycle %d: %s granted %v, want %v (%d port(s) per bank, oldest first)",
			now, v.arb.Name(), granted, v.expect, perBank)
	}
	return nil
}

// validateBankedSQ checks the structural rules of the banked+store-queue
// design: at most two grants per bank per cycle (one array port plus one
// store-queue acceptance, so a second grant requires a store among them),
// the oldest ready request of each bank always granted, and queues within
// capacity.
func (v *GrantValidator) validateBankedSQ(now uint64, a *ports.BankedSQ, ready []ports.Request, granted []int) error {
	sel := a.Selector()
	for i := range v.used {
		v.used[i] = 0
		v.aux[i] = 0
	}
	for _, g := range granted {
		b := sel.BankOf(ready[g].Addr)
		v.used[b]++
		if ready[g].Store {
			v.aux[b]++
		}
	}
	for b, n := range v.used {
		switch {
		case n > 2:
			return fmt.Errorf("cycle %d: %s granted %d requests in bank %d, at most 2 (port + queue acceptance)",
				now, v.arb.Name(), n, b)
		case n == 2 && v.aux[b] == 0:
			return fmt.Errorf("cycle %d: %s granted two loads in bank %d, but the second grant needs the store queue",
				now, v.arb.Name(), b)
		}
		if q := a.StoreQueueLen(b); q > a.Depth() {
			return fmt.Errorf("cycle %d: %s bank %d store queue holds %d lines, capacity %d",
				now, v.arb.Name(), b, q, a.Depth())
		}
	}
	return v.oldestPerBankGranted(now, sel, ready, granted)
}

// validateLBIC checks the LBIC's combining rules: every bank's grants touch
// one line, at most LinePorts of them, and each bank opens the line its
// policy selects. Under the leading policy, and on the greedy policy's
// rotation cycles, that is the oldest ready request's; otherwise it is the
// greedy choice (see greedyOpened). Store queues stay within depth.
func (v *GrantValidator) validateLBIC(now uint64, a *core.LBIC, ready []ports.Request, granted []int) error {
	cfg := a.Config()
	sel := a.Selector()
	for i := range v.used {
		v.used[i] = 0
	}
	for _, g := range granted {
		b := sel.BankOf(ready[g].Addr)
		line := sel.LineOf(ready[g].Addr)
		if v.used[b] == 0 {
			v.lines[b] = line
		} else if v.lines[b] != line {
			return fmt.Errorf("cycle %d: %s combined lines %d and %d in bank %d; combining must stay on the open line",
				now, v.arb.Name(), v.lines[b], line, b)
		}
		v.used[b]++
		if v.used[b] > cfg.LinePorts {
			return fmt.Errorf("cycle %d: %s granted %d same-line requests in bank %d, line buffer has %d ports",
				now, v.arb.Name(), v.used[b], b, cfg.LinePorts)
		}
	}
	for b := 0; b < cfg.Banks; b++ {
		if q := a.StoreQueueLen(b); q > cfg.StoreQueueDepth {
			return fmt.Errorf("cycle %d: %s bank %d store queue holds %d lines, capacity %d",
				now, v.arb.Name(), b, q, cfg.StoreQueueDepth)
		}
	}
	if cfg.Policy == core.PolicyGreedy && now%core.GreedyRotate != 0 {
		return v.greedyOpened(now, a, ready, granted)
	}
	return v.oldestPerBankGranted(now, sel, ready, granted)
}

// greedyOpened is the reference for the greedy policy's line choice on a
// non-rotation cycle: each bank opens the first, in order of appearance, of
// its largest same-line groups, with sizes capped at LinePorts. It asserts
// that the first request of that group was granted. The groups are found by
// a linear search over those seen so far, independent of the arbiter's own
// grouping.
func (v *GrantValidator) greedyOpened(now uint64, a *core.LBIC, ready []ports.Request, granted []int) error {
	cfg := a.Config()
	sel := a.Selector()
	v.groups = v.groups[:0]
	for i := range ready {
		b, line := sel.BankOf(ready[i].Addr), sel.LineOf(ready[i].Addr)
		k := 0
		for k < len(v.groups) && (v.groups[k].bank != b || v.groups[k].line != line) {
			k++
		}
		if k == len(v.groups) {
			v.groups = append(v.groups, lineGroup{bank: b, line: line, first: i})
		}
		if v.groups[k].size < cfg.LinePorts {
			v.groups[k].size++
		}
	}
	for i := range v.mark {
		v.mark[i] = -1
	}
	for k, g := range v.groups {
		if best := v.mark[g.bank]; best < 0 || g.size > v.groups[best].size {
			v.mark[g.bank] = k
		}
	}
	for b, k := range v.mark {
		if k < 0 {
			continue
		}
		want := v.groups[k]
		if !slices.Contains(granted, want.first) {
			return fmt.Errorf("cycle %d: %s did not open line %d in bank %d with seq %d; it is the first of the bank's largest same-line groups (%d requests, capped at %d)",
				now, v.arb.Name(), want.line, b, ready[want.first].Seq, want.size, cfg.LinePorts)
		}
	}
	return nil
}

// validateCoded checks the coded-banks structural rules: one leader grant
// per data bank (stores must lead), later same-line loads only through the
// composed line buffer within its port count, any other load into a busy
// bank is a reconstruction — at most one per parity group, and in the
// non-speculative design a reconstructing group's grants must all target the
// reconstructed bank (the other members' ports are consumed by the code
// read). Update queues stay within depth, and the oldest ready load of each
// bank is always served unless a strict reconstruction consumed its port.
func (v *GrantValidator) validateCoded(now uint64, a *ports.Coded, ready []ports.Request, granted []int) error {
	cfg := a.Config()
	sel := a.Selector()
	for b := 0; b < cfg.Banks; b++ {
		v.used[b] = 0
	}
	for g := 0; g < cfg.ParityBanks; g++ {
		v.aux[g] = 0
		v.mark[g] = -1
	}
	for _, gi := range granted {
		r := ready[gi]
		b := sel.BankOf(r.Addr)
		grp := a.GroupOf(b)
		line := sel.LineOf(r.Addr)
		if v.used[b] == 0 {
			// The leader takes the bank's port and opens its line.
			v.used[b] = 1
			v.lines[b] = line
			continue
		}
		if r.Store {
			return fmt.Errorf("cycle %d: %s granted a store (seq %d) into busy bank %d; stores cannot combine or reconstruct",
				now, v.arb.Name(), r.Seq, b)
		}
		if cfg.LinePorts >= 2 && line == v.lines[b] && v.used[b] < cfg.LinePorts {
			v.used[b]++ // same-line combine through the composed line buffer
			continue
		}
		v.aux[grp]++
		if v.aux[grp] > 1 {
			return fmt.Errorf("cycle %d: %s reconstructed %d reads in group %d, the parity bank has one port",
				now, v.arb.Name(), v.aux[grp], grp)
		}
		v.mark[grp] = b
	}
	if !cfg.Speculative {
		for _, gi := range granted {
			b := sel.BankOf(ready[gi].Addr)
			grp := a.GroupOf(b)
			if v.mark[grp] >= 0 && v.mark[grp] != b {
				return fmt.Errorf("cycle %d: %s granted bank %d while reconstructing bank %d in group %d (the members' ports are consumed by the code read)",
					now, v.arb.Name(), b, v.mark[grp], grp)
			}
		}
	}
	for g := 0; g < cfg.ParityBanks; g++ {
		if q := a.UpdateQueueLen(g); q > a.Depth() {
			return fmt.Errorf("cycle %d: %s group %d update queue holds %d lines, capacity %d",
				now, v.arb.Name(), g, q, a.Depth())
		}
	}
	gi := 0
	for b := range v.seen {
		v.seen[b] = false
	}
	for i := range ready {
		b := sel.BankOf(ready[i].Addr)
		hit := false
		for ; gi < len(granted) && granted[gi] <= i; gi++ {
			if granted[gi] == i {
				hit = true
			}
		}
		if v.seen[b] {
			continue
		}
		v.seen[b] = true
		if hit || ready[i].Store {
			continue
		}
		if grp := a.GroupOf(b); cfg.Speculative || v.mark[grp] < 0 || v.mark[grp] == b {
			return fmt.Errorf("cycle %d: %s did not grant seq %d, the oldest ready load of idle bank %d",
				now, v.arb.Name(), ready[i].Seq, b)
		}
	}
	return nil
}

// oldestPerBankGranted asserts that for every bank with at least one ready
// request, the oldest such request was granted — the no-starvation property
// shared by every bank-organized design here except the greedy LBIC off its
// rotation cycles.
func (v *GrantValidator) oldestPerBankGranted(now uint64, sel ports.BankSelector, ready []ports.Request, granted []int) error {
	g := 0
	for i := range v.seen {
		v.seen[i] = false
	}
	for i := range ready {
		b := sel.BankOf(ready[i].Addr)
		if v.seen[b] {
			continue
		}
		v.seen[b] = true
		hit := false
		for ; g < len(granted) && granted[g] <= i; g++ {
			if granted[g] == i {
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("cycle %d: %s did not grant seq %d, the oldest ready request of bank %d",
				now, v.arb.Name(), ready[i].Seq, b)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
