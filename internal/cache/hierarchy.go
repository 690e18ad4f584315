package cache

import (
	"fmt"
	"math"
	"math/bits"

	"lbic/internal/metrics"
	"lbic/internal/recycle"
	"lbic/internal/trace"
)

// Params configures the hierarchy timing. The zero value is not valid; use
// DefaultParams for the paper's Table 1 baseline.
type Params struct {
	L1 Geometry
	L2 Geometry
	// HitLat is the L1 hit latency in cycles.
	HitLat int
	// L2Lat is the L1-miss to L2 access latency in cycles.
	L2Lat int
	// MemLat is the additional main-memory latency on an L2 miss.
	MemLat int
	// MSHRs bounds concurrently outstanding missed lines.
	MSHRs int
	// MaxTargets bounds requests attached to one MSHR.
	MaxTargets int
	// MaxPending bounds in-flight L1-to-L2 requests.
	MaxPending int
	// L2PerCycle is how many new miss requests the L1-to-L2 path accepts
	// per cycle; the paper's fully pipelined path accepts one (0 = 1).
	L2PerCycle int
}

// DefaultParams returns the paper's Table 1 / §2.1 memory system: 32KB
// direct-mapped L1 with 32B lines and 1-cycle hits, 512KB 4-way L2 with 64B
// lines and 4-cycle access, 10-cycle main memory, 64 outstanding misses.
func DefaultParams() Params {
	return Params{
		L1:         Geometry{Size: 32 << 10, LineSize: 32, Assoc: 1},
		L2:         Geometry{Size: 512 << 10, LineSize: 64, Assoc: 4},
		HitLat:     1,
		L2Lat:      4,
		MemLat:     10,
		MSHRs:      64,
		MaxTargets: 16,
		MaxPending: 64,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := p.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if p.L2.LineSize < p.L1.LineSize {
		return fmt.Errorf("cache: L2 line size %d smaller than L1 line size %d", p.L2.LineSize, p.L1.LineSize)
	}
	if p.HitLat < 1 || p.L2Lat < 1 || p.MemLat < 0 {
		return fmt.Errorf("cache: invalid latencies hit=%d l2=%d mem=%d", p.HitLat, p.L2Lat, p.MemLat)
	}
	if p.MSHRs < 1 || p.MaxTargets < 1 || p.MaxPending < 1 {
		return fmt.Errorf("cache: invalid mshr configuration %d/%d/%d", p.MSHRs, p.MaxTargets, p.MaxPending)
	}
	if p.L2PerCycle < 0 {
		return fmt.Errorf("cache: negative L2 bandwidth %d", p.L2PerCycle)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"hit latency", p.HitLat}, {"L2 latency", p.L2Lat}, {"memory latency", p.MemLat},
		{"MSHR count", p.MSHRs}, {"MSHR target count", p.MaxTargets},
		{"pending request limit", p.MaxPending}, {"L2 bandwidth", p.L2PerCycle},
	} {
		if f.n > maxSize {
			return fmt.Errorf("cache: %s %d exceeds the limit of %d", f.name, f.n, maxSize)
		}
	}
	return nil
}

// Outcome classifies an Access.
type Outcome int

const (
	// Hit: the request completes after HitLat cycles.
	Hit Outcome = iota
	// Miss: the request is attached to an MSHR and completes when the fill
	// arrives (a Completion will be emitted).
	Miss
	// Blocked: no MSHR or target slot was available; the requester must
	// retry. The consumed port cycle is lost, as in real hardware.
	Blocked
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Blocked:
		return "blocked"
	default:
		return "outcome(?)"
	}
}

// Completion reports a finished request. Token is the caller's opaque
// request identifier; At is the cycle the result is available to dependents.
type Completion struct {
	Token int64
	At    uint64
}

// Stats aggregates hierarchy activity.
type Stats struct {
	Accesses    uint64 // L1 lookups performed
	Hits        uint64
	MissesNew   uint64 // demand misses allocating an MSHR
	MissesMerge uint64 // misses attached to an existing MSHR
	Blocked     uint64 // accesses rejected for MSHR/target exhaustion
	L2Accesses  uint64
	L2Misses    uint64
	Writebacks  uint64 // dirty L1 victims written to L2
	Fills       uint64
}

// MissRate returns demand misses (new + merged) over accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.MissesNew+s.MissesMerge) / float64(s.Accesses)
}

// mshr is one miss status holding register: an L1 line whose fill is
// outstanding and the requests waiting for it.
type mshr struct {
	line    uint64  // L1 line address
	store   bool    // a store is waiting: install dirty
	targets []int64 // waiting requests' tokens, in arrival order
}

// mshrIndex maps each line with a live MSHR to the MSHR's slot. It is open
// addressed with linear probing over a power-of-two table of at least twice
// as many cells as MSHRs, so every probe meets an empty cell, and a removal
// shifts the rest of its probe run back instead of leaving a tombstone.
type mshrIndex struct {
	cells []mshrEntry
	shift uint // 64 - log2(len(cells)), for Fibonacci hashing
	lbits uint // log2(L1 line size): lines hash by line number
}

// mshrEntry is one index cell. slot is the MSHR's slot number plus one, so
// the zero entry is empty.
type mshrEntry struct {
	line uint64
	slot int32
}

func newMSHRIndex(mshrs int, lineBits int) mshrIndex {
	n := 2
	for n < 2*mshrs {
		n *= 2
	}
	return mshrIndex{cells: indexPool.Make(n),
		shift: uint(64 - bits.TrailingZeros(uint(n))), lbits: uint(lineBits)}
}

// home returns line's home cell.
func (x *mshrIndex) home(line uint64) int {
	return int((line >> x.lbits) * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the cell holding line and its slot, or, when line is not
// indexed, the empty cell where put would place it and -1.
func (x *mshrIndex) find(line uint64) (cell int, slot int32) {
	mask := len(x.cells) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		if e := x.cells[i]; e.slot == 0 || e.line == line {
			return i, e.slot - 1
		}
	}
}

// put indexes line at slot in the empty cell find returned for it.
func (x *mshrIndex) put(cell int, line uint64, slot int32) {
	x.cells[cell] = mshrEntry{line: line, slot: slot + 1}
}

// remove drops line, which must be indexed. Each later entry of its probe
// run whose own probe passes the hole moves back into it, so no probe for a
// line still indexed stops short at the emptied cell.
func (x *mshrIndex) remove(line uint64) {
	mask := len(x.cells) - 1
	i, _ := x.find(line)
	for j := (i + 1) & mask; x.cells[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.cells[j].line))&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = mshrEntry{}
}

// Hierarchy is the timed two-level memory system. Drive it one cycle at a
// time: call Advance(now) once per cycle (before issuing that cycle's
// accesses), then Access for each granted request, then collect Completions
// with Drain.
type Hierarchy struct {
	params Params
	l1     *Array
	l2     *Array

	// The MSHR file is fixed at Params.MSHRs slots. Access finds a line's
	// slot through the index, the file's only lookup; the unsent ring and
	// the fill ring carry slot numbers, so send and fill index their MSHR
	// directly.
	mshrs      []mshr
	targetBuf  []int64 // the slots' initial target backing, from targetPool
	free       []int32 // free slot numbers, a stack
	index      mshrIndex
	unsent     []int32 // ring of slots whose L2 request is not sent, FIFO
	unsentHead int
	unsentLen  int

	fills     [][]int32 // slots whose fill is due, a ring indexed by cycle
	fillBuf   []int32   // the fill slots' initial backing, from slotPool
	fillMask  uint64
	sendBW    int // L2 requests per cycle
	sendLeft  int // request slots remaining this cycle
	pendingL2 int

	completed []Completion
	drained   []Completion // previous Drain result, recycled as next buffer
	stats     Stats

	// Observability: per-cycle MSHR occupancy (sampled in Advance) and an
	// optional structured event sink.
	mshrOcc   *metrics.Histogram
	events    trace.EventSink
	lineShift uint // log2(L1 line size), for event line numbers
}

// Storage pools for the buffers a hierarchy sizes at construction (see
// recycle): NewHierarchy takes from them and Release returns to them.
// slotPool serves every buffer of slot numbers: the free stack, the unsent
// ring and the fill ring.
var (
	mshrPool       recycle.Slices[mshr]
	targetPool     recycle.Slices[int64]
	indexPool      recycle.Slices[mshrEntry]
	slotPool       recycle.Slices[int32]
	completionPool recycle.Slices[Completion]
)

// fillSlotCap and completionCap are the initial capacities of a fill-ring
// slot and of a completion buffer. Each is above the most the ten kernels
// reach under PortAxis at 100k instructions (2 fills due in one cycle, 23
// completions drained in one); a run past them grows the buffer by append.
// targetSlotCap is the initial capacity of an MSHR's target list, Table 1's
// 16 targets: at DefaultParams no list grows, and a larger MaxTargets grows
// a list by append, so the file never preallocates MSHRs x MaxTargets.
const (
	fillSlotCap   = 4
	completionCap = 32
	targetSlotCap = 16
)

// NewHierarchy returns an empty hierarchy.
func NewHierarchy(p Params) (*Hierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bw := p.L2PerCycle
	if bw == 0 {
		bw = 1
	}
	// Size the fill ring to the next power of two above the total miss
	// latency, so any configured latency fits.
	ring := 2
	for ring <= p.L2Lat+p.MemLat+1 {
		ring *= 2
	}
	l1, err := NewArray(p.L1)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	l2, err := NewArray(p.L2)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	tcap := min(p.MaxTargets, targetSlotCap)
	h := &Hierarchy{
		params:    p,
		l1:        l1,
		l2:        l2,
		mshrs:     mshrPool.Make(p.MSHRs),
		targetBuf: targetPool.Make(p.MSHRs * tcap),
		free:      slotPool.Make(p.MSHRs),
		index:     newMSHRIndex(p.MSHRs, p.L1.LineBits()),
		unsent:    slotPool.Make(p.MSHRs),
		sendBW:    bw,
		fills:     make([][]int32, ring),
		fillBuf:   slotPool.Make(ring * fillSlotCap),
		fillMask:  uint64(ring - 1),
		completed: completionPool.Make(completionCap)[:0],
		drained:   completionPool.Make(completionCap)[:0],
		mshrOcc: metrics.NewHistogram("mem.mshr_occupancy",
			"live MSHRs per cycle (memory-level parallelism in flight)",
			"mshrs", p.MSHRs+1),
		lineShift: uint(p.L1.LineBits()),
	}
	for i := range h.mshrs {
		h.mshrs[i].targets = h.targetBuf[i*tcap : i*tcap : (i+1)*tcap]
		h.free[i] = int32(p.MSHRs - 1 - i)
	}
	for i := range h.fills {
		h.fills[i] = h.fillBuf[i*fillSlotCap : i*fillSlotCap : (i+1)*fillSlotCap]
	}
	return h, nil
}

// Release hands the hierarchy's storage back for a later NewHierarchy: both
// arrays' ways, the MSHR file, the fill ring and the completion buffers.
// Stats and the MSHR occupancy histogram stay valid; nothing else of the
// hierarchy may be used afterwards, nor the slice the last Drain returned.
func (h *Hierarchy) Release() {
	h.l1.release()
	h.l2.release()
	mshrPool.Put(h.mshrs)
	targetPool.Put(h.targetBuf)
	indexPool.Put(h.index.cells)
	slotPool.Put(h.free)
	slotPool.Put(h.unsent)
	slotPool.Put(h.fillBuf)
	completionPool.Put(h.completed)
	completionPool.Put(h.drained)
	h.mshrs, h.targetBuf, h.index.cells, h.free, h.unsent = nil, nil, nil, nil, nil
	h.fills, h.fillBuf, h.completed, h.drained = nil, nil, nil, nil
}

// SetEventSink directs the structured event trace to s (nil disables it).
func (h *Hierarchy) SetEventSink(s trace.EventSink) { h.events = s }

// MSHROccupancy returns the live per-cycle MSHR occupancy histogram.
func (h *Hierarchy) MSHROccupancy() *metrics.Histogram { return h.mshrOcc }

// Params returns the configured parameters.
func (h *Hierarchy) Params() Params { return h.params }

// L1 exposes the L1 array for inspection.
func (h *Hierarchy) L1() *Array { return h.l1 }

// L2 exposes the L2 array for inspection.
func (h *Hierarchy) L2() *Array { return h.l2 }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// OutstandingMisses returns the number of live MSHRs.
func (h *Hierarchy) OutstandingMisses() int { return len(h.mshrs) - len(h.free) }

// Advance performs the per-cycle work for cycle now: deliver fills due this
// cycle (installing lines, completing attached requests) and send at most one
// queued miss request to L2. Call exactly once per cycle, before Access.
func (h *Hierarchy) Advance(now uint64) {
	h.mshrOcc.Observe(h.OutstandingMisses())
	// Deliver fills scheduled for this cycle.
	slot := now & h.fillMask
	for _, s := range h.fills[slot] {
		h.fill(now, s)
	}
	h.fills[slot] = h.fills[slot][:0]

	// Up to sendBW new L2 requests per cycle, queued misses first.
	h.sendLeft = h.sendBW
	for h.sendLeft > 0 && h.unsentLen > 0 && h.pendingL2 < h.params.MaxPending {
		s := h.unsent[h.unsentHead]
		if h.unsentHead++; h.unsentHead == len(h.unsent) {
			h.unsentHead = 0
		}
		h.unsentLen--
		h.send(now, s)
		h.sendLeft--
	}
}

// NextActivity returns the earliest cycle strictly after now at which the
// hierarchy has self-scheduled work — a fill due, or a queued L2 request it
// could send. It returns MaxUint64 when fully idle. The core's fast-forward
// uses it to bound how far it may safely skip.
func (h *Hierarchy) NextActivity(now uint64) uint64 {
	if h.unsentLen > 0 && h.pendingL2 < h.params.MaxPending {
		return now + 1
	}
	ring := uint64(len(h.fills))
	for d := uint64(1); d < ring; d++ {
		if len(h.fills[(now+d)&h.fillMask]) > 0 {
			return now + d
		}
	}
	return math.MaxUint64
}

// SkipCycles accounts n elided idle cycles. On a cycle with no fill due and
// nothing sendable, Advance's only observable effect is the MSHR occupancy
// sample, which is constant across the span — so a fast-forwarded run's
// histogram is bit-identical to a stepped run's.
func (h *Hierarchy) SkipCycles(n uint64) {
	h.mshrOcc.ObserveN(h.OutstandingMisses(), n)
}

// send issues the L2 lookup for MSHR slot s's line and schedules its fill.
func (h *Hierarchy) send(now uint64, s int32) {
	line := h.mshrs[s].line
	h.pendingL2++
	h.stats.L2Accesses++
	lat := h.params.L2Lat
	if !h.l2.Access(line, false) {
		h.stats.L2Misses++
		lat += h.params.MemLat
		// Allocate in L2 now; a dirty L2 victim goes to memory (no timing
		// effect at 10-cycle flat latency, but it is counted by the array).
		h.l2.Install(line, false)
	}
	at := now + uint64(lat)
	h.fills[at&h.fillMask] = append(h.fills[at&h.fillMask], s)
}

// fill installs MSHR slot s's returned line into L1, completes the attached
// requests and frees the slot.
func (h *Hierarchy) fill(now uint64, s int32) {
	m := &h.mshrs[s]
	h.index.remove(m.line)
	h.pendingL2--
	h.stats.Fills++
	victim, victimDirty, evicted := h.l1.Install(m.line, m.store)
	if evicted && victimDirty {
		h.stats.Writebacks++
		if h.events != nil {
			h.events.Emit(trace.Event{Cycle: now, Kind: trace.EvWriteback, Seq: -1,
				Bank: -1, Line: victim >> h.lineShift})
		}
		// Write the victim back into L2 (it may itself miss there; the
		// write buffer absorbs the latency, so only state is updated).
		if !h.l2.Access(victim, true) {
			h.l2.Install(victim, true)
		}
	}
	for _, t := range m.targets {
		h.completed = append(h.completed, Completion{Token: t, At: now + 1})
	}
	h.free = append(h.free, s)
}

// Access performs one granted L1 access at cycle now. The token identifies
// the request in later Completions. On Hit a Completion at now+HitLat is
// queued immediately.
func (h *Hierarchy) Access(now uint64, addr uint64, write bool, token int64) Outcome {
	h.stats.Accesses++
	if h.l1.Access(addr, write) {
		h.stats.Hits++
		h.completed = append(h.completed, Completion{Token: token, At: now + uint64(h.params.HitLat)})
		return Hit
	}
	line := h.params.L1.LineAddr(addr)
	cell, s := h.index.find(line)
	if s < 0 {
		n := len(h.free)
		if n == 0 {
			h.stats.Blocked++
			return Blocked
		}
		s = h.free[n-1]
		h.free = h.free[:n-1]
		h.index.put(cell, line, s)
		m := &h.mshrs[s]
		m.line, m.store, m.targets = line, write, append(m.targets[:0], token)
		h.stats.MissesNew++
		if h.events != nil {
			h.events.Emit(trace.Event{Cycle: now, Kind: trace.EvMiss, Seq: -1,
				Bank: -1, Line: line >> h.lineShift})
		}
		// Send immediately if a request slot remains this cycle, else queue.
		if h.sendLeft > 0 && h.pendingL2 < h.params.MaxPending {
			h.sendLeft--
			h.send(now, s)
		} else {
			i := h.unsentHead + h.unsentLen
			if i >= len(h.unsent) {
				i -= len(h.unsent)
			}
			h.unsent[i] = s
			h.unsentLen++
		}
		return Miss
	}
	m := &h.mshrs[s]
	if len(m.targets) >= h.params.MaxTargets {
		h.stats.Blocked++
		return Blocked
	}
	h.stats.MissesMerge++
	m.store = m.store || write
	m.targets = append(m.targets, token)
	return Miss
}

// Drain returns the completions accumulated since the last call. The caller
// owns the returned slice until the next Drain (the two buffers alternate).
func (h *Hierarchy) Drain() []Completion {
	c := h.completed
	h.completed = h.drained[:0]
	h.drained = c
	return c
}
