package ports

import "fmt"

// DefaultStoreQueueDepth is the per-bank store queue capacity used when an
// LBICConfig leaves it zero; the PA8000-style store queue the paper cites
// holds "up to some number of words", and eight matches its line of 32
// bytes.
const DefaultStoreQueueDepth = 8

// Policy selects how each LBIC bank chooses the line it opens in a cycle.
type Policy int

const (
	// PolicyLeading opens the line of the oldest ready request per bank —
	// "fair and simple", the policy the paper evaluates (§5.2).
	PolicyLeading Policy = iota
	// PolicyGreedy opens the line with the most combinable ready requests,
	// the enhancement §5.2 proposes ("larger access groups can be given
	// priority over smaller groups... the smaller groups may grow larger by
	// the time they are selected"). To bound the starvation this invites,
	// every GreedyRotate-th cycle reverts to the leading request.
	PolicyGreedy
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLeading:
		return "leading"
	case PolicyGreedy:
		return "greedy"
	default:
		return "policy(?)"
	}
}

// GreedyRotate is the anti-starvation period of PolicyGreedy: the cycles
// divisible by it use the leading request regardless of group sizes.
const GreedyRotate = 8

// LBICConfig describes an MxN LBIC.
type LBICConfig struct {
	// Banks is M, the number of single-ported, line-interleaved banks.
	Banks int
	// LinePorts is N, the number of ports on each bank's line buffer — the
	// maximum accesses to one line of one bank per cycle.
	LinePorts int
	// LineSize is the cache line size in bytes (bank selection granularity).
	LineSize int
	// StoreQueueDepth is the per-bank store queue capacity; 0 selects
	// DefaultStoreQueueDepth.
	StoreQueueDepth int
	// Policy is the per-bank line selection policy; the zero value is the
	// paper's leading-request policy.
	Policy Policy
}

// NewLBIC returns an MxN LBIC arbiter ("lbic-4x2", "lbic-4x2-greedy"): the
// paper's contribution, the Locality-Based Interleaved Cache (§5). It is a
// traditional M-bank line-interleaved cache in which each bank carries a
// single N-ported line buffer and a small store queue. Each cycle the oldest
// ready request per bank (the "leading" request) gates its line into that
// bank's line buffer, and up to N-1 further ready requests to the same line
// combine with it: loads read their offsets from the buffer, stores deposit
// into the bank's store queue, which retires to the array on idle bank
// cycles. Requests to a busy bank's other lines conflict and wait, exactly
// as in a traditional multi-bank cache — the LBIC's gain is that same-line
// bank conflicts, which §4 shows dominate, become combined accesses instead.
func NewLBIC(cfg LBICConfig) (*Banks, error) {
	if cfg.StoreQueueDepth == 0 {
		cfg.StoreQueueDepth = DefaultStoreQueueDepth
	}
	if cfg.LinePorts < 1 {
		return nil, fmt.Errorf("core: LBIC line ports %d is not positive", cfg.LinePorts)
	}
	if cfg.StoreQueueDepth < 1 {
		return nil, fmt.Errorf("core: LBIC store queue depth %d is not positive", cfg.StoreQueueDepth)
	}
	sel, err := NewBankSelector(cfg.Banks, cfg.LineSize)
	if err != nil {
		return nil, err
	}
	if words := cfg.LineSize / 4; cfg.LinePorts > words {
		return nil, fmt.Errorf("core: LBIC combining width %d exceeds the %d four-byte words of a %d-byte line",
			cfg.LinePorts, words, cfg.LineSize)
	}
	name := fmt.Sprintf("lbic-%dx%d", cfg.Banks, cfg.LinePorts)
	if cfg.Policy == PolicyGreedy {
		name += "-greedy"
	}
	a := newBanks(Params{Org: OrgLBIC, Banks: cfg.Banks, PortsPerBank: 1, LinePorts: cfg.LinePorts,
		Depth: cfg.StoreQueueDepth, Policy: cfg.Policy}, sel, name, cfg.Banks*cfg.LinePorts)
	a.widths = make([]uint64, cfg.LinePorts+1)
	a.picks = make([]lineGroup, cfg.Banks)
	return a, nil
}

// grantLBIC scans oldest-first: the first request to touch a bank leads it
// and gates its line; subsequent requests combine while they match the gated
// line and ports remain; mismatching lines conflict. Stores additionally
// need a store-queue slot. Active banks record their combining-group width.
func (a *Banks) grantLBIC(now uint64, ready []Request, dst []int) []int {
	greedy := a.p.Policy == PolicyGreedy && now%GreedyRotate != 0
	if greedy {
		a.chooseGreedy(ready)
	}
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		c := &a.cyc[b]
		if c.busy {
			continue
		}
		line := a.sel.LineOf(r.Addr)
		if greedy && c.count == 0 && line != a.picks[b].line {
			// Greedy policy reserved this bank for a larger group; requests
			// to other lines wait even if older.
			a.stats.LineConflicts++
			a.stall(now, r, b, "greedy-bypass")
			continue
		}
		switch {
		case c.count == 0:
			c.count, c.open = 1, line
			a.stats.Leading++
			a.accesses[b]++
			if r.Store && !a.queues[b].Offer(line, a.p.Depth) {
				// Queue full: the leading store writes the array directly,
				// exactly as in a traditional banked cache, and closes the
				// bank's line ports for this cycle (the single array port
				// is busy with the write).
				a.stats.DirectStores++
				c.busy = true
			}
			dst = append(dst, i)
		case c.open != line:
			a.stats.LineConflicts++
			a.stall(now, r, b, "line-conflict")
		case int(c.count) >= a.p.LinePorts:
			a.stats.PortSaturation++
			a.stall(now, r, b, "port-saturation")
		case r.Store && !a.queues[b].Offer(line, a.p.Depth):
			a.stats.StoreQueueStalls++
			a.stall(now, r, b, "store-queue-full")
		default:
			c.count++
			a.combine(now, r, b)
			dst = append(dst, i)
		}
	}
	for b := 0; b < a.p.Banks; b++ {
		if n := a.cyc[b].count; n > 0 {
			a.widths[n]++
		}
	}
	return dst
}

// chooseGreedy implements PolicyGreedy's selection pass: per bank, the line
// with the most combinable ready requests (group sizes cap at LinePorts, so
// excess beyond the buffer's ports confers no priority); ties keep the
// oldest request's line. One pass groups the ready list by (bank, line) in
// order of first appearance, and a second visits the groups in that order.
func (a *Banks) chooseGreedy(ready []Request) {
	g := &a.groups
	g.reset(len(ready))
	for i := range ready {
		g.add(a.sel.BankOf(ready[i].Addr), a.sel.LineOf(ready[i].Addr), a.p.LinePorts)
	}
	clear(a.picks)
	for _, grp := range g.groups {
		p := &a.picks[grp.bank]
		switch {
		case p.size == 0:
			*p = grp
		case grp.size > p.size:
			*p = grp
			a.stats.GreedyOverrides++
		}
	}
}

// lineGroups groups one cycle's ready requests by (bank, line), in order of
// first appearance, with each group's size capped. An open-addressed table
// maps a key to its group; its slots are stamped with the cycle's generation
// so a reset does not clear them. The table holds at least twice as many
// slots as requests, so probes stay short at any scan depth; it grows, and
// only then allocates, when a longer ready list arrives.
type lineGroups struct {
	groups []lineGroup
	slots  []groupSlot
	gen    uint32
	shift  uint // 64 - log2(len(slots))
}

// lineGroup is one (bank, line) group and its capped size.
type lineGroup struct {
	line       uint64
	bank, size int32
}

// groupSlot is one table slot: the generation that filled it and the index
// of its group.
type groupSlot struct {
	gen   uint32
	group int32
}

// reset empties the groups for a ready list of n requests.
func (g *lineGroups) reset(n int) {
	g.groups = g.groups[:0]
	if 2*n > len(g.slots) {
		size, bits := 16, uint(4)
		for size < 2*n {
			size, bits = 2*size, bits+1
		}
		g.slots, g.gen, g.shift = make([]groupSlot, size), 0, 64-bits
	}
	if g.gen++; g.gen == 0 {
		clear(g.slots)
		g.gen = 1
	}
}

// add counts one request to (bank, line), opening a group on its first
// appearance; sizes stop at limit.
func (g *lineGroups) add(bank int, line uint64, limit int) {
	mask := len(g.slots) - 1
	h := int(((line ^ uint64(bank)<<58) * 0x9e3779b97f4a7c15) >> g.shift)
	for ; g.slots[h].gen == g.gen; h = (h + 1) & mask {
		if grp := &g.groups[g.slots[h].group]; grp.line == line && grp.bank == int32(bank) {
			if grp.size < int32(limit) {
				grp.size++
			}
			return
		}
	}
	g.slots[h] = groupSlot{gen: g.gen, group: int32(len(g.groups))}
	g.groups = append(g.groups, lineGroup{line: line, bank: int32(bank), size: 1})
}
