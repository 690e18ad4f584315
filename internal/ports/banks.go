package ports

import (
	"fmt"
	"strings"

	"lbic/internal/trace"
)

// Org names one bank organization. Each has a constructor, which sets its
// Params, and a grant loop; everything else about Banks is shared.
type Org uint8

const (
	// OrgBank is the traditional multi-bank cache (§3.2): one array port
	// per bank, taken by loads and stores alike.
	OrgBank Org = iota
	// OrgBankSQ adds a store queue beside each bank's port (PA8000-style).
	OrgBankSQ
	// OrgMPB gives each bank PortsPerBank true ports.
	OrgMPB
	// OrgLBIC is the paper's LBIC (§5): each bank's line buffer serves up
	// to LinePorts accesses to its open line, and stores pass through the
	// open line into the bank's store queue.
	OrgLBIC
	// OrgCoded is XOR-coded banks (arXiv 2001.09599): reads of a busy bank
	// reconstruct through their parity group, and stores publish onto the
	// group's code-update queue.
	OrgCoded
)

// Params are a bank organization's parameters. Only the constructors set
// them.
type Params struct {
	Org   Org
	Banks int
	// PortsPerBank is the array ports of each bank: OrgMPB's P, else 1.
	PortsPerBank int
	// LinePorts is the line buffer's port count (the LBIC's N, a coded
	// organization's -lbN); 0 means no line buffer.
	LinePorts int
	// Depth is each queue's capacity in lines; 0 for organizations without
	// queues.
	Depth int
	// ParityBanks is the number of XOR parity groups (OrgCoded).
	ParityBanks int
	// Speculative selects OrgCoded's single-read reconstruction.
	Speculative bool
	// Policy is the LBIC's line choice.
	Policy Policy
}

// Stats counts a bank organization's activity. Each grant loop fills the
// counters its rules define: the LBIC's in the embedded LBICStats, which
// the other organizations share where they count the same events
// (Combined, DirectStores, and StoreDrains for any queue's idle drains).
type Stats struct {
	LBICStats
	// Conflicts counts stalled requests, whatever their cause.
	Conflicts uint64
	// SameLineConflicts counts OrgBank's stalls on the line its bank had
	// already opened: the same-line conflicts §4 shows dominate.
	SameLineConflicts uint64
	// Reconstructions, UpdateStalls, StaleCode and Replays are OrgCoded's
	// (see CodedStats).
	Reconstructions, UpdateStalls, StaleCode, Replays uint64
}

// LBICStats counts LBIC-specific events, in the layout run reports carry.
type LBICStats struct {
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

// CodedStats aggregates a coded-banks run's counters.
type CodedStats struct {
	// Conflicts counts requests stalled on a busy bank with no
	// reconstruction path available.
	Conflicts uint64 `json:"conflicts"`
	// Reconstructions counts second reads of a busy bank served through the
	// parity code instead of stalling.
	Reconstructions uint64 `json:"reconstructions"`
	// CodeUpdates counts parity-update lines retired on idle parity-bank
	// cycles — the write cost of keeping the code current.
	CodeUpdates uint64 `json:"code_updates"`
	// UpdateStalls counts stores stalled because their group's update queue
	// could not accept another line this cycle.
	UpdateStalls uint64 `json:"update_stalls"`
	// StaleCode counts reconstructions blocked by pending code updates
	// (non-speculative mode).
	StaleCode uint64 `json:"stale_code,omitempty"`
	// Replays counts speculative reconstructions squashed by stale code and
	// retried the next cycle (speculative mode).
	Replays uint64 `json:"replays,omitempty"`
	// Combined counts same-line accesses served through the composed line
	// buffers (LinePorts >= 2).
	Combined uint64 `json:"combined,omitempty"`
}

// Coded returns the coded organization's view of the counters.
func (s Stats) Coded() CodedStats {
	return CodedStats{Conflicts: s.Conflicts, Reconstructions: s.Reconstructions, CodeUpdates: s.StoreDrains,
		UpdateStalls: s.UpdateStalls, StaleCode: s.StaleCode, Replays: s.Replays, Combined: s.Combined}
}

// bankCycle is one bank's state within a cycle, cleared by every Grant.
// Coded organizations append one entry per parity bank after the data
// banks.
type bankCycle struct {
	// open is the line the bank's first grant opened.
	open uint64
	// count is the grants on the bank's open line (LBIC, coded) or on its
	// ports (OrgMPB).
	count int32
	// busy marks the array port taken. In the LBIC it is taken only by a
	// direct store, which closes the line buffer for the cycle.
	busy bool
	// accepted marks a line accepted by the queue this entry owns.
	accepted bool
}

// Banks is the one bank-organized arbiter. Its organization's constructor
// sets the parameters, and Grant runs the organization's grant loop; the
// per-cycle reset, the queues and their idle drain, the stall and combine
// recording, and the observers are shared.
type Banks struct {
	p    Params
	sel  BankSelector
	name string
	peak int

	cyc []bankCycle
	// queues are coalescing line queues, one per bank (OrgBankSQ, OrgLBIC)
	// or per parity group (OrgCoded); queue q is owned by cyc[qbase+q].
	queues []LineQueue
	qbase  int
	// groupSize is the data banks per parity group.
	groupSize int
	// groups and picks are the greedy LBIC's per-cycle line choice: the
	// ready list's (bank, line) groups, and the group each bank opens.
	groups lineGroups
	picks  []lineGroup

	stats Stats
	// Per-bank observers: grants, stalls, and OrgBank's same-line stalls.
	// Coded organizations count reconstructions after the data banks.
	accesses, conflicts, sameLine []uint64
	// widths[n] counts LBIC bank-cycles that granted n same-line accesses.
	widths []uint64
	events trace.EventSink
}

// newBanks allocates the shared state for p: per-bank counters, the cycle
// state, and queues of depth p.Depth, one per parity group when the
// organization has them, else one per bank. Constructors have already
// validated p.
func newBanks(p Params, sel BankSelector, name string, peak int) *Banks {
	n := p.Banks + p.ParityBanks
	a := &Banks{p: p, sel: sel, name: name, peak: peak,
		cyc:       make([]bankCycle, n),
		accesses:  make([]uint64, n),
		conflicts: make([]uint64, n),
	}
	switch {
	case p.ParityBanks > 0:
		a.queues, a.qbase, a.groupSize = make([]LineQueue, p.ParityBanks), p.Banks, p.Banks/p.ParityBanks
	case p.Depth > 0:
		a.queues = make([]LineQueue, p.Banks)
	}
	return a
}

// Name implements Arbiter, matching the registry's name grammar.
func (a *Banks) Name() string { return a.name }

// PeakWidth implements Arbiter.
func (a *Banks) PeakWidth() int { return a.peak }

// Params returns the organization's parameters (defaults resolved).
func (a *Banks) Params() Params { return a.p }

// Selector returns the bank selection function.
func (a *Banks) Selector() BankSelector { return a.sel }

// Stats returns a snapshot of the counters. The stall totals are the sums
// of the per-bank counts, so the grant loops never carry a total through
// memory.
func (a *Banks) Stats() Stats {
	s := a.stats
	for b := range a.conflicts {
		s.Conflicts += a.conflicts[b]
	}
	for b := range a.sameLine {
		s.SameLineConflicts += a.sameLine[b]
	}
	return s
}

// GroupOf returns the parity group of data bank b (OrgCoded).
func (a *Banks) GroupOf(b int) int { return b / a.groupSize }

// Grant implements Arbiter: clear the cycle state, run the organization's
// grant loop over the ready list (oldest first), then let every queue whose
// owning bank stayed idle retire its front line. The loops are called
// directly: a func-valued loop chosen at construction measured slower.
func (a *Banks) Grant(now uint64, ready []Request, dst []int) []int {
	clear(a.cyc)
	switch a.p.Org {
	case OrgBank:
		dst = a.grantBank(now, ready, dst)
	case OrgBankSQ:
		dst = a.grantBankSQ(now, ready, dst)
	case OrgMPB:
		dst = a.grantMPB(now, ready, dst)
	case OrgLBIC:
		dst = a.grantLBIC(now, ready, dst)
	case OrgCoded:
		dst = a.grantCoded(now, ready, dst)
	}
	// A queue retires its front line when no request used its owning bank
	// this cycle: it opened no line, took no port and accepted no line.
	owners := a.cyc[a.qbase:]
	for q := range a.queues {
		if c := &owners[q]; c.count == 0 && !c.busy && !c.accepted && a.queues[q].Len() > 0 {
			a.queues[q].PopFront()
			a.stats.StoreDrains++
		}
	}
	return dst
}

// stall records a request that waits this cycle against bank b: the
// conflict counters and, with a sink attached, an event naming the cause.
// It is small enough to inline into the grant loops.
func (a *Banks) stall(now uint64, r *Request, b int, cause string) {
	a.conflicts[b]++
	if a.events != nil {
		a.emit(now, trace.EvConflict, r, b, cause)
	}
}

// combine records a request granted on bank b's open line.
func (a *Banks) combine(now uint64, r *Request, b int) {
	a.stats.Combined++
	a.accesses[b]++
	if a.events != nil {
		a.emit(now, trace.EvCombine, r, b, "")
	}
}

func (a *Banks) emit(now uint64, kind string, r *Request, b int, cause string) {
	a.events.Emit(trace.Event{Cycle: now, Kind: kind, Seq: int64(r.Seq), Bank: b,
		Line: a.sel.LineOf(r.Addr), Cause: cause})
}

// SetEventSink directs the structured event trace (conflicts with their
// causes, combines) to s; nil disables it. Set it before the first Grant.
func (a *Banks) SetEventSink(s trace.EventSink) { a.events = s }

// BankAccesses returns a copy of the grants per bank, the per-bank
// histogram behind the §3/§4 conflict characterization; coded
// organizations append one slot per parity bank (reconstructed reads).
func (a *Banks) BankAccesses() []uint64 { return append([]uint64(nil), a.accesses...) }

// BankConflicts returns a copy of the stalled requests per bank.
func (a *Banks) BankConflicts() []uint64 { return append([]uint64(nil), a.conflicts...) }

// BankSameLineConflicts returns OrgBank's stalled requests per bank whose
// line matched the already-granted line — the §4 same-line share.
func (a *Banks) BankSameLineConflicts() []uint64 { return append([]uint64(nil), a.sameLine...) }

// CombineWidths returns the LBIC's combining-width distribution: element n
// counts the bank-cycles whose open line served exactly n accesses (n in
// 1..LinePorts; element 0 is unused). Mass above width 1 is bandwidth a
// traditional banked cache would have lost to same-line conflicts.
func (a *Banks) CombineWidths() []uint64 { return append([]uint64(nil), a.widths...) }

// Queues returns the number of queues: per bank, per parity group, or 0.
func (a *Banks) Queues() int { return len(a.queues) }

// QueueLen returns the lines in queue q.
func (a *Banks) QueueLen(q int) int { return a.queues[q].Len() }

// QueueLines appends queue q's lines, front first, to dst and returns the
// extended slice; the verification oracle snapshots queues this way every
// cycle to assert FIFO draining without per-call allocation.
func (a *Banks) QueueLines(q int, dst []uint64) []uint64 { return a.queues[q].Lines(dst) }

// Quiescent implements Quiescer: with every queue empty, an idle cycle
// neither drains nor changes state, which lets the core fast-forward.
func (a *Banks) Quiescent() bool {
	for q := range a.queues {
		if a.queues[q].Len() > 0 {
			return false
		}
	}
	return true
}

// DumpState implements StateDumper: queue occupancy for the
// forward-progress watchdog's hang diagnostics; "" without queues.
func (a *Banks) DumpState() string {
	if len(a.queues) == 0 {
		return ""
	}
	owner, kind := "bank", "sq"
	if a.p.ParityBanks > 0 {
		owner, kind = "group", "upd"
	}
	var b strings.Builder
	b.WriteString(a.name + ":")
	for q := range a.queues {
		fmt.Fprintf(&b, " %s%d[%s %d/%d]", owner, q, kind, a.queues[q].Len(), a.p.Depth)
	}
	return b.String()
}
