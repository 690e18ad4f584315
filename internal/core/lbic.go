// Package core implements the paper's contribution: the Locality-Based
// Interleaved Cache (LBIC, §5). An MxN LBIC is a traditional M-bank
// line-interleaved cache in which each bank carries a single N-ported line
// buffer and a small store queue. Each cycle the oldest ready request per
// bank (the "leading" request) gates its line into that bank's line buffer,
// and up to N-1 further ready requests to the same line combine with it:
// loads read their offsets from the buffer, stores deposit into the bank's
// store queue, which retires to the array on idle bank cycles. Requests to a
// busy bank's other lines conflict and wait, exactly as in a traditional
// multi-bank cache — the LBIC's gain is that same-line bank conflicts, which
// §4 shows dominate, become combined accesses instead.
package core

import (
	"fmt"
	"strings"

	"lbic/internal/ports"
	"lbic/internal/trace"
)

// DefaultStoreQueueDepth is the per-bank store queue capacity used when a
// Config leaves it zero; the PA8000-style store queue the paper cites holds
// "up to some number of words", and eight matches its line of 32 bytes.
const DefaultStoreQueueDepth = 8

// Policy selects how each bank chooses the line it opens in a cycle.
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

// Config describes an MxN LBIC.
type Config struct {
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

// Stats counts LBIC-specific events.
type Stats struct {
	// Leading counts leading requests granted (one per active bank-cycle).
	Leading uint64
	// Combined counts requests granted by combining with a leading request.
	Combined uint64
	// LineConflicts counts requests stalled because their bank was open on a
	// different line.
	LineConflicts uint64
	// PortSaturation counts requests stalled because their line already had
	// N grants this cycle.
	PortSaturation uint64
	// StoreQueueStalls counts combining stores stalled on a full store queue.
	StoreQueueStalls uint64
	// StoreDrains counts store-queue entries retired on idle bank cycles.
	StoreDrains uint64
	// DirectStores counts leading stores that wrote the array directly
	// because their bank's store queue was full — the degenerate case in
	// which the LBIC behaves exactly like a traditional banked cache.
	DirectStores uint64
	// GreedyOverrides counts bank-cycles where PolicyGreedy opened a line
	// other than the oldest ready request's.
	GreedyOverrides uint64
}

// LBIC is the MxN arbiter. It implements ports.Arbiter.
type LBIC struct {
	cfg Config
	sel ports.BankSelector

	// storeQ holds, per bank, the FIFO of cache lines with queued store
	// data. Stores to a line already queued coalesce into its entry (the
	// store queue is a write-combining buffer, as in the PA8000 design the
	// paper cites); draining retires one line per idle bank cycle.
	storeQ []ports.LineQueue

	// Per-cycle scratch, reset in Grant.
	leadSet []bool
	blocked []bool
	line    []uint64
	count   []int
	// chosen holds, under PolicyGreedy, the line each bank opens this cycle
	// (valid where chosenSet is true); greedyN is its group size.
	chosen    []uint64
	chosenSet []bool
	greedyN   []int
	// groups is PolicyGreedy's per-cycle grouping of the ready list by
	// (bank, line).
	groups lineGroups

	stats Stats

	// Observability: per-bank grant/conflict counts, the distribution of
	// combining-group widths (widths[n] = bank-cycles that granted n
	// same-line accesses), and an optional structured event sink.
	bankAccess   []uint64
	bankConflict []uint64
	widths       []uint64
	events       trace.EventSink
}

// New returns an MxN LBIC arbiter.
func New(cfg Config) (*LBIC, error) {
	if cfg.StoreQueueDepth == 0 {
		cfg.StoreQueueDepth = DefaultStoreQueueDepth
	}
	if cfg.LinePorts < 1 {
		return nil, fmt.Errorf("core: LBIC line ports %d is not positive", cfg.LinePorts)
	}
	if cfg.StoreQueueDepth < 1 {
		return nil, fmt.Errorf("core: LBIC store queue depth %d is not positive", cfg.StoreQueueDepth)
	}
	sel, err := ports.NewBankSelector(cfg.Banks, cfg.LineSize)
	if err != nil {
		return nil, err
	}
	if words := cfg.LineSize / 4; cfg.LinePorts > words {
		return nil, fmt.Errorf("core: LBIC combining width %d exceeds the %d four-byte words of a %d-byte line",
			cfg.LinePorts, words, cfg.LineSize)
	}
	return &LBIC{
		cfg:          cfg,
		sel:          sel,
		storeQ:       make([]ports.LineQueue, cfg.Banks),
		leadSet:      make([]bool, cfg.Banks),
		blocked:      make([]bool, cfg.Banks),
		line:         make([]uint64, cfg.Banks),
		count:        make([]int, cfg.Banks),
		chosen:       make([]uint64, cfg.Banks),
		chosenSet:    make([]bool, cfg.Banks),
		greedyN:      make([]int, cfg.Banks),
		bankAccess:   make([]uint64, cfg.Banks),
		bankConflict: make([]uint64, cfg.Banks),
		widths:       make([]uint64, cfg.LinePorts+1),
	}, nil
}

// Name implements ports.Arbiter, e.g. "lbic-4x2" or "lbic-4x2-greedy".
func (a *LBIC) Name() string {
	if a.cfg.Policy == PolicyGreedy {
		return fmt.Sprintf("lbic-%dx%d-greedy", a.cfg.Banks, a.cfg.LinePorts)
	}
	return fmt.Sprintf("lbic-%dx%d", a.cfg.Banks, a.cfg.LinePorts)
}

// PeakWidth implements ports.Arbiter: M banks times N line ports.
func (a *LBIC) PeakWidth() int { return a.cfg.Banks * a.cfg.LinePorts }

// Config returns the configuration (with defaults applied).
func (a *LBIC) Config() Config { return a.cfg }

// Selector returns the bank selection function.
func (a *LBIC) Selector() ports.BankSelector { return a.sel }

// Stats returns a snapshot of the counters.
func (a *LBIC) Stats() Stats { return a.stats }

// StoreQueueLen returns the lines queued in bank b's store queue.
func (a *LBIC) StoreQueueLen(b int) int { return a.storeQ[b].Len() }

// StoreQueueLines appends bank b's queued lines, front first, to dst and
// returns the extended slice; the verification oracle snapshots queues this
// way every cycle to assert FIFO draining without per-call allocation.
func (a *LBIC) StoreQueueLines(b int, dst []uint64) []uint64 {
	return a.storeQ[b].Lines(dst)
}

// Quiescent implements ports.Quiescer: with every store queue empty, an idle
// cycle neither drains nor changes state, which lets the core fast-forward.
func (a *LBIC) Quiescent() bool {
	for b := range a.storeQ {
		if a.storeQ[b].Len() > 0 {
			return false
		}
	}
	return true
}

// SetEventSink implements ports.EventRecorder.
func (a *LBIC) SetEventSink(s trace.EventSink) { a.events = s }

// DumpState implements ports.StateDumper: per-bank store-queue occupancy for
// the forward-progress watchdog's hang diagnostics.
func (a *LBIC) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", a.Name())
	for bank := range a.storeQ {
		fmt.Fprintf(&b, " bank%d[sq %d/%d]", bank, a.storeQ[bank].Len(), a.cfg.StoreQueueDepth)
	}
	return b.String()
}

// BankAccesses implements ports.BankObserver: grants per bank.
func (a *LBIC) BankAccesses() []uint64 { return append([]uint64(nil), a.bankAccess...) }

// BankConflicts implements ports.BankObserver: stalled requests per bank
// (line conflicts, port saturation, and store-queue stalls).
func (a *LBIC) BankConflicts() []uint64 { return append([]uint64(nil), a.bankConflict...) }

// CombineWidths returns the combining-width distribution: element n counts
// the bank-cycles whose open line served exactly n accesses (n in
// 1..LinePorts; element 0 is unused). Mass above width 1 is bandwidth a
// traditional banked cache would have lost to same-line conflicts.
func (a *LBIC) CombineWidths() []uint64 { return append([]uint64(nil), a.widths...) }

// conflict records one stalled request with its cause.
func (a *LBIC) conflict(now uint64, r *ports.Request, b int, counter *uint64, cause string) {
	*counter++
	a.bankConflict[b]++
	if a.events != nil {
		a.events.Emit(trace.Event{Cycle: now, Kind: trace.EvConflict,
			Seq: int64(r.Seq), Bank: b, Line: a.sel.LineOf(r.Addr), Cause: cause})
	}
}

// chooseGreedy implements PolicyGreedy's selection pass: per bank, the line
// with the most combinable ready requests (group sizes cap at LinePorts, so
// excess beyond the buffer's ports confers no priority); ties keep the
// oldest request's line. One pass groups the ready list by (bank, line) in
// order of first appearance, and a second visits the groups in that order.
func (a *LBIC) chooseGreedy(ready []ports.Request) {
	g := &a.groups
	g.reset(len(ready))
	for i := range ready {
		g.add(a.sel.BankOf(ready[i].Addr), a.sel.LineOf(ready[i].Addr), a.cfg.LinePorts)
	}
	for _, grp := range g.groups {
		b, line, n := int(grp.bank), grp.line, int(grp.size)
		switch {
		case !a.chosenSet[b]:
			a.chosen[b], a.chosenSet[b], a.greedyN[b] = line, true, n
		case n > a.greedyN[b]:
			a.chosen[b], a.greedyN[b] = line, n
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

// enqueueStore records a granted store's line in bank b's queue; a store to
// an already-queued line coalesces for free. It reports whether the store
// was accepted.
func (a *LBIC) enqueueStore(b int, line uint64) bool {
	q := &a.storeQ[b]
	if q.Contains(line) {
		return true
	}
	if q.Len() >= a.cfg.StoreQueueDepth {
		return false
	}
	q.Push(line)
	return true
}

// Grant implements ports.Arbiter. Scanning oldest-first: the first request
// to touch a bank leads it and gates its line; subsequent requests combine
// while they match the gated line and ports remain; mismatching lines
// conflict. Stores additionally need a store-queue slot. Idle banks drain
// one store-queue entry.
func (a *LBIC) Grant(now uint64, ready []ports.Request, dst []int) []int {
	for b := 0; b < a.cfg.Banks; b++ {
		a.leadSet[b] = false
		a.blocked[b] = false
		a.count[b] = 0
		a.chosenSet[b] = false
	}
	if a.cfg.Policy == PolicyGreedy && now%GreedyRotate != 0 {
		a.chooseGreedy(ready)
	}
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		if a.blocked[b] {
			continue
		}
		line := a.sel.LineOf(r.Addr)
		if a.chosenSet[b] && !a.leadSet[b] && line != a.chosen[b] {
			// Greedy policy reserved this bank for a larger group; requests
			// to other lines wait even if older.
			a.conflict(now, r, b, &a.stats.LineConflicts, "greedy-bypass")
			continue
		}
		switch {
		case !a.leadSet[b]:
			a.leadSet[b] = true
			a.line[b] = line
			a.count[b] = 1
			a.stats.Leading++
			a.bankAccess[b]++
			if r.Store && !a.enqueueStore(b, line) {
				// Queue full: the leading store writes the array directly,
				// exactly as in a traditional banked cache, and closes the
				// bank's line ports for this cycle (the single array port
				// is busy with the write).
				a.stats.DirectStores++
				a.blocked[b] = true
			}
			dst = append(dst, i)
		case a.line[b] != line:
			a.conflict(now, r, b, &a.stats.LineConflicts, "line-conflict")
		case a.count[b] >= a.cfg.LinePorts:
			a.conflict(now, r, b, &a.stats.PortSaturation, "port-saturation")
		case r.Store && !a.enqueueStore(b, line):
			a.conflict(now, r, b, &a.stats.StoreQueueStalls, "store-queue-full")
		default:
			a.count[b]++
			a.stats.Combined++
			a.bankAccess[b]++
			if a.events != nil {
				a.events.Emit(trace.Event{Cycle: now, Kind: trace.EvCombine,
					Seq: int64(r.Seq), Bank: b, Line: line})
			}
			dst = append(dst, i)
		}
	}
	// Store queues use idle cycles to perform their writes (§5.2): one
	// queued line retires per idle bank cycle. Active banks record their
	// combining-group width.
	for b := 0; b < a.cfg.Banks; b++ {
		if a.count[b] == 0 && a.storeQ[b].Len() > 0 {
			a.storeQ[b].PopFront()
			a.stats.StoreDrains++
		}
		if a.count[b] > 0 {
			a.widths[a.count[b]]++
		}
	}
	return dst
}
