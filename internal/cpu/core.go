package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/metrics"
	"lbic/internal/ports"
	"lbic/internal/recycle"
	"lbic/internal/trace"
)

// entry state machine. Memory operations follow:
//
//	load:  waiting → ready → issued(AGU) → [order-parked | fwd-parked |
//	       mem-pending → mem-wait] → done
//	store: waiting → ready → issued(AGU) → wait-data → done → (commit:
//	       store buffer) → written
type state uint8

const (
	stEmpty state = iota
	stWaiting
	stReady
	stIssued
	stOrderParked // load: an older store's address is unknown
	stFwdParked   // load: waiting on a matching, unready store
	stMemPending  // load: competing for a cache port
	stMemWait     // load: cache access in flight
	stWaitData    // store: address generated, data operand pending
	stDone
)

var stateNames = [...]string{"empty", "waiting", "ready", "issued",
	"order-parked", "fwd-parked", "mem-pending", "mem-wait", "wait-data", "done"}

// String returns the state's diagnostic name.
func (s state) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

const (
	evExec    = iota // functional unit completes; result ready
	evAGU            // load/store address generation completes
	evMem            // cache completes a load
	evWrite          // cache completes a committed store's write
	wheelSize = 64   // must exceed every FU and hit latency
)

type event struct {
	kind int32
	idx  int32 // RUU index (evExec/evAGU/evMem) or store buffer slot (evWrite)
}

// entry is one RUU slot. It keeps only what the timing model reads after
// dispatch (40 bytes), so the Table 1 window of 1024 entries fits a host L1
// data cache; a record's value, PC, opcode and source registers never enter
// the window (the verifier sees the whole record at dispatch).
type entry struct {
	seq       uint64
	addr      uint64
	class     isa.Class
	size      uint8
	dst       isa.Reg
	state     state
	src1Ready bool
	src2Ready bool
	addrDone  bool
	// waiterHead chains the loads forward-parked on this entry (a store);
	// waiterNext threads this entry into another entry's chain (a load).
	// -1 terminates. The chains replace the old per-seq waiter map.
	waiterHead int32
	waiterNext int32
	// depHead and depTail delimit the FIFO chain of operands waiting on this
	// entry's result. A link is consumer<<1 | (operand-1), threaded through
	// Core.depNext; -1 terminates.
	depHead int32
	depTail int32
}

func (e *entry) isLoad() bool  { return e.class == isa.ClassLoad }
func (e *entry) isStore() bool { return e.class == isa.ClassStore }
func (e *entry) isMem() bool   { return e.class == isa.ClassLoad || e.class == isa.ClassStore }

// fwdRef tracks an in-flight store for store-to-load forwarding, indexed by
// the 8-byte-aligned address granules the store touches (see fwdTable).
type fwdRef struct {
	seq  uint64
	addr uint64
	size uint8
	ruu  int32 // RUU index pre-commit, -(slot+1) once in store buffer slot
}

type storeBufEntry struct {
	seq        uint64
	addr       uint64
	size       uint8
	live       bool
	granted    bool
	waiterHead int32 // loads forward-parked on this committed store, -1 none
}

type orderRef struct {
	seq uint64
	idx int32
}

// Verifier observes the core's memory pipeline for invariant checking. The
// oracle in internal/oracle implements it; the interface lives here (with
// only ports/trace types in its signatures) so the checker can depend on the
// core without an import cycle. All hooks are called synchronously from
// Step; a violation is latched and surfaced via Err, which the core checks
// at the end of every cycle.
type Verifier interface {
	// ObserveDispatch sees every memory operation entering the window, in
	// program order, with its ground-truth address, size, and value.
	ObserveDispatch(d *trace.Dyn)
	// ObserveGrant sees every arbitration: the ready list handed to the
	// arbiter (possibly empty — stateful arbiters get a Grant call each
	// cycle) and the granted indices.
	ObserveGrant(now uint64, ready []ports.Request, granted []int)
	// ObserveAccess sees every granted request's hierarchy access; blocked
	// reports an MSHR-exhaustion rejection (the request will retry).
	ObserveAccess(now uint64, seq uint64, store, blocked bool)
	// ObserveForward sees a load serviced by store-to-load forwarding from
	// the store with sequence number storeSeq.
	ObserveForward(now uint64, loadSeq, storeSeq uint64)
	// Err returns the first latched invariant violation, or nil.
	Err() error
}

// Core simulates one program run cycle by cycle.
type Core struct {
	cfg    Config
	stream trace.Stream
	hier   *cache.Hierarchy
	arb    ports.Arbiter

	now   uint64
	stats Stats

	// Forward-progress watchdog: watchdog is the no-progress cycle limit
	// (0 = disabled), lastProgress the last cycle that committed an
	// instruction or retired a committed store.
	watchdog     uint64
	lastProgress uint64

	// fastForwarded counts cycles elided by the idle-cycle skip (still
	// included in Cycles; see fastforward.go).
	fastForwarded uint64

	// RUU ring.
	entries []entry
	head    int
	count   int
	nextSeq uint64

	// depNext threads the dependent chains (entry.depHead/depTail): link
	// consumer<<1 | (operand-1) holds the next link of its producer's chain.
	// An operand waits on at most one producer, so two links per RUU slot
	// suffice and wiring never allocates.
	depNext []int32

	// One-instruction lookahead into the stream.
	peeked    bool
	peekDyn   trace.Dyn
	streamEOF bool

	lastWriter [isa.NumRegs]int32 // RUU index producing each register, -1 if none

	// ready is the ready set, one bit per RUU slot; readyCount counts its
	// members. Dispatch fills the ring in seq order, so slot order counted
	// from head is age order and issue walks the bits from head.
	ready      []uint64
	readyCount int

	wheel    [wheelSize][]event
	wheelBuf []event // the slots' initial backing, from wheelPool

	// LSQ-derived structures.
	lsqCount    int
	storeOrder  []orderRef // dispatched stores, FIFO from soHead; popped when address known
	soHead      int        // consumed prefix of storeOrder (compacted in place)
	orderParked []int32    // loads blocked on unknown older store addresses
	orderedMin  uint64     // barrier seq at the last orderParked scan (see releaseOrderParked)
	fwd         fwdTable   // store-forwarding index by address granule
	pending     pendWin    // loads ready for a port, ascending seq

	// Committed store buffer (FIFO ring over slots).
	storeBuf    []storeBufEntry
	sbHead      int
	sbCount     int
	sbUngranted int // live slots not yet granted a cache port
	storeLive   int // live (incl. granted, unwritten) stores

	// Per-cycle FU accounting.
	fuUsed [isa.NumClasses]int         // pipelined issues this cycle
	fuBusy [isa.NumClasses][]uint64    // release times for unpipelined units
	lat    [isa.NumClasses]isa.Latency // isa.LatencyOf per class

	reqBuf   []ports.Request
	reqIdx   []int32 // parallel: RUU index (loads) or -(slot+1) (stores)
	grantBuf []int

	// Pooled scratch for per-cycle stages, so steady-state stepping never
	// allocates.
	releaseScratch []int32

	// arbQuiescent is non-nil when the arbiter implements ports.Quiescer;
	// fast-forward needs it to prove the arbiter holds no queued work.
	arbQuiescent func() bool

	// Observability. The gauges and histogram are live metric objects a
	// run report's registry adopts; events is nil unless a structured
	// event trace was requested.
	grantHist *metrics.Histogram
	ruuOcc    *metrics.Gauge
	lsqOcc    *metrics.Gauge
	sbOcc     *metrics.Gauge
	events    trace.EventSink
	lineShift uint // log2(L1 line size), for event line numbers

	// verify, when non-nil, receives the memory-pipeline observations and
	// enables the per-cycle self-checks (CPI stall stack sums to cycles).
	verify Verifier
	// view, when non-nil, prints the per-cycle timeline (SetPipelineView).
	view *viewState
}

// Storage pools for the buffers a core sizes at construction (see recycle):
// New takes from them and Release returns to them. The pending window and
// the forwarding table keep theirs in pending.go and fwdtable.go.
var (
	entryPool    recycle.Slices[entry]
	linkPool     recycle.Slices[int32]
	storeBufPool recycle.Slices[storeBufEntry]
	wheelPool    recycle.Slices[event]
	orderPool    recycle.Slices[orderRef]
	// slotPool holds event-wheel slots grown past wheelSlotCap.
	slotPool recycle.Slices[event]
)

// wheelSlotCap is the initial capacity of an event-wheel slot. The ten
// kernels under PortAxis at 100k instructions schedule at most 66 events
// for one cycle; a slot that fills past its capacity moves to a pooled
// array of twice the size (growSlot).
const wheelSlotCap = 32

// New prepares a run of stream against the given memory hierarchy and port
// arbiter.
func New(stream trace.Stream, hier *cache.Hierarchy, arb ports.Arbiter, cfg Config) (*Core, error) {
	if stream == nil {
		return nil, fmt.Errorf("cpu: nil instruction stream")
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil memory hierarchy")
	}
	if arb == nil {
		return nil, fmt.Errorf("cpu: nil port arbiter")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier.Params().HitLat >= wheelSize {
		return nil, fmt.Errorf("cpu: hit latency %d exceeds event wheel %d", hier.Params().HitLat, wheelSize)
	}
	c := &Core{
		cfg:      cfg,
		stream:   stream,
		hier:     hier,
		arb:      arb,
		entries:  entryPool.Make(cfg.RUUSize),
		depNext:  linkPool.Make(2 * cfg.RUUSize),
		ready:    make([]uint64, (cfg.RUUSize+63)/64),
		storeBuf: storeBufPool.Make(cfg.StoreBufferSize),
		wheelBuf: wheelPool.Make(wheelSize * wheelSlotCap),
		// Sized for an LSQ full of stores; past that it grows by append.
		storeOrder: orderPool.Make(cfg.LSQSize)[:0],
		grantHist: metrics.NewHistogram("cpu.grants_per_cycle",
			"port grants per cycle (arbiter bandwidth actually used)",
			"grants", arb.PeakWidth()+1),
		ruuOcc:    metrics.NewGauge("cpu.ruu_occupancy", "instructions in the window per commit cycle"),
		lsqOcc:    metrics.NewGauge("cpu.lsq_occupancy", "memory operations in the LSQ per commit cycle"),
		sbOcc:     metrics.NewGauge("cpu.storebuf_occupancy", "committed stores awaiting write per commit cycle"),
		lineShift: uint(hier.Params().L1.LineBits()),
	}
	c.orderedMin = math.MaxUint64
	for cl, n := range c.cfg.FUCount {
		if n == 0 {
			c.cfg.FUCount[cl] = defaultFUCount
		}
	}
	switch {
	case cfg.WatchdogCycles == 0:
		c.watchdog = DefaultWatchdogCycles
	case cfg.WatchdogCycles > 0:
		c.watchdog = uint64(cfg.WatchdogCycles)
	}
	for r := range c.lastWriter {
		c.lastWriter[r] = -1
	}
	for cl := range c.lat {
		c.lat[cl] = isa.LatencyOf(isa.Class(cl))
	}
	for i := range c.entries {
		c.entries[i] = entry{waiterHead: -1, waiterNext: -1, depHead: -1, depTail: -1}
	}
	for i := range c.wheel {
		c.wheel[i] = c.wheelBuf[i*wheelSlotCap : i*wheelSlotCap : (i+1)*wheelSlotCap]
	}
	// Every pending load holds an LSQ slot.
	c.pending.init(cfg.LSQSize)
	// Every store with a generated address is in the LSQ or the store buffer
	// and touches at most two granules, bounding the forwarding index.
	c.fwd.init(2 * (cfg.LSQSize + cfg.StoreBufferSize))
	if q, ok := arb.(ports.Quiescer); ok {
		c.arbQuiescent = q.Quiescent
	}
	return c, nil
}

// Release hands the core's window storage back for a later New: the RUU
// entries and dependent links, the store order, the pending-load window,
// the forwarding table, the store buffer and the event-wheel slots. Stats,
// FastForwarded and the metric objects stay valid; the core must not step
// afterwards.
func (c *Core) Release() {
	entryPool.Put(c.entries)
	linkPool.Put(c.depNext)
	storeBufPool.Put(c.storeBuf)
	wheelPool.Put(c.wheelBuf)
	for _, slot := range c.wheel {
		if cap(slot) > wheelSlotCap {
			slotPool.Put(slot)
		}
	}
	orderPool.Put(c.storeOrder)
	c.pending.release()
	c.fwd.release()
	c.entries, c.depNext, c.storeBuf, c.wheelBuf, c.storeOrder = nil, nil, nil, nil, nil
	c.wheel = [wheelSize][]event{}
}

// Stats returns a snapshot of the run statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.now
	return s
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// SetEventSink directs the structured event trace to s (nil disables it).
// Set it before the first Step.
func (c *Core) SetEventSink(s trace.EventSink) { c.events = s }

// SetVerifier attaches an invariant checker (nil disables verification).
// Set it before the first Step; Step fails on the first latched violation.
func (c *Core) SetVerifier(v Verifier) { c.verify = v }

// GrantsPerCycle returns the live per-cycle port-grant histogram.
func (c *Core) GrantsPerCycle() *metrics.Histogram { return c.grantHist }

// OccupancyGauges returns the live per-cycle occupancy gauges: RUU, LSQ,
// and store buffer.
func (c *Core) OccupancyGauges() []*metrics.Gauge {
	return []*metrics.Gauge{c.ruuOcc, c.lsqOcc, c.sbOcc}
}

// Done reports whether the run has fully drained.
func (c *Core) Done() bool {
	return c.fetchExhausted() && c.count == 0 && c.storeLive == 0
}

func (c *Core) fetchExhausted() bool {
	if c.cfg.MaxInsts > 0 && c.stats.Dispatched >= c.cfg.MaxInsts {
		return true
	}
	return c.streamEOF && !c.peeked
}

// Run steps the core until completion and returns the statistics.
func (c *Core) Run() (Stats, error) {
	return c.RunContext(context.Background())
}

// ctxCheckInterval is how often RunLanes polls its context, in cycles: a
// per-cycle check would cost an interface call in the hottest loop, and a
// few thousand cycles of cancellation latency is far below human-visible.
const ctxCheckInterval = 4096

// RunContext steps the core until completion, cooperatively honoring ctx:
// cancellation (or deadline expiry) aborts the run within ctxCheckInterval
// cycles with the context's error. This is what makes per-cell deadlines in
// sweep runners effective without killing the process. It is RunLanes of
// this one core.
func (c *Core) RunContext(ctx context.Context) (Stats, error) {
	err := RunLanes(ctx, []*Core{c})[0]
	return c.Stats(), err
}

// Step advances the simulation by one cycle.
func (c *Core) Step() error {
	if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
		return fmt.Errorf("cpu: exceeded %d cycles (committed %d of %d dispatched; RUU %d, head %s)",
			c.cfg.MaxCycles, c.stats.Committed, c.stats.Dispatched, c.count, c.HeadState())
	}
	commit0 := c.stats.Committed
	sbStall0 := c.stats.CommitStallStoreBuf
	ruuStall0 := c.stats.DispatchStallRUU
	lsqStall0 := c.stats.DispatchStallLSQ
	c.hier.Advance(c.now)
	c.processEvents()
	c.releaseOrderParked()
	c.commit()
	c.memoryIssue()
	c.issue()
	c.dispatch()
	c.drainCompletions()
	c.accountCycle(commit0, sbStall0, ruuStall0, lsqStall0)
	if c.stats.Committed > commit0 {
		c.lastProgress = c.now
	}
	if c.watchdog != 0 && c.now-c.lastProgress >= c.watchdog {
		return c.hangError()
	}
	if c.verify != nil {
		if err := c.verify.Err(); err != nil {
			return fmt.Errorf("cpu: verify failed at cycle %d: %w", c.now, err)
		}
		var sum uint64
		for _, n := range c.stats.StallCycles {
			sum += n
		}
		if sum != c.now+1 {
			return fmt.Errorf("cpu: verify failed at cycle %d: CPI stall buckets sum to %d, want %d",
				c.now, sum, c.now+1)
		}
	}
	if c.view != nil {
		c.view.observe(c)
	}
	c.now++
	return nil
}

// --- events and wakeup ---

func (c *Core) schedule(at uint64, ev event) {
	if at <= c.now {
		at = c.now + 1
	}
	if at-c.now >= wheelSize {
		panic(fmt.Sprintf("cpu: event latency %d exceeds wheel", at-c.now))
	}
	slot := at % wheelSize
	if len(c.wheel[slot]) == cap(c.wheel[slot]) {
		c.wheel[slot] = growSlot(c.wheel[slot])
	}
	c.wheel[slot] = append(c.wheel[slot], ev)
}

// growSlot moves a full event-wheel slot to a pooled array of twice its
// capacity and returns a grown one it leaves to the pool; a slot still on
// wheelBuf stays there.
func growSlot(slot []event) []event {
	grown := slotPool.Make(2 * cap(slot))[:len(slot)]
	copy(grown, slot)
	if cap(slot) > wheelSlotCap {
		slotPool.Put(slot)
	}
	return grown
}

func (c *Core) processEvents() {
	slot := c.now % wheelSize
	evs := c.wheel[slot]
	c.wheel[slot] = evs[:0]
	// The slice is reused immediately; iterate over a stable copy by index,
	// but new events always target future slots, so in-place iteration is
	// safe as long as we re-read length (appends to this slot are imposs.).
	for i := 0; i < len(evs); i++ {
		ev := evs[i]
		switch ev.kind {
		case evExec:
			c.complete(ev.idx)
		case evAGU:
			c.addrGenerated(ev.idx)
		case evMem:
			c.complete(ev.idx)
		case evWrite:
			c.storeWritten(int(ev.idx))
		}
	}
}

// complete marks an instruction's result ready and wakes its dependents in
// the order they were wired.
func (c *Core) complete(idx int32) {
	e := &c.entries[idx]
	e.state = stDone
	l := e.depHead
	e.depHead, e.depTail = -1, -1
	for l >= 0 {
		next := c.depNext[l]
		c.wake(l>>1, int(l&1)+1)
		l = next
	}
}

func (c *Core) wake(idx int32, operand int) {
	e := &c.entries[idx]
	if operand == 1 {
		e.src1Ready = true
	} else {
		e.src2Ready = true
	}
	switch {
	case e.isStore():
		if operand == 1 && e.state == stWaiting {
			c.pushReady(idx)
		} else if operand == 2 && e.state == stWaitData {
			c.storeDone(idx)
		}
	case e.state == stWaiting && e.src1Ready && e.src2Ready:
		c.pushReady(idx)
	}
}

func (c *Core) pushReady(idx int32) {
	c.entries[idx].state = stReady
	c.ready[idx>>6] |= 1 << (idx & 63)
	c.readyCount++
}

// --- stores: address generation, completion, forwarding bookkeeping ---

// addrGenerated handles AGU completion for loads and stores.
func (c *Core) addrGenerated(idx int32) {
	e := &c.entries[idx]
	e.addrDone = true
	if e.isStore() {
		c.registerForward(e.seq, e.addr, e.size, idx)
		if e.src2Ready {
			c.storeDone(idx)
		} else {
			e.state = stWaitData
		}
		return
	}
	c.routeLoad(idx)
}

// storeDone marks a store complete (address and data ready): it becomes
// committable and can now satisfy forwarding loads parked on it.
func (c *Core) storeDone(idx int32) {
	e := &c.entries[idx]
	e.state = stDone
	c.wakeChain(&e.waiterHead)
}

func granules(addr uint64, size uint8) (uint64, uint64) {
	return addr >> 3, (addr + uint64(size) - 1) >> 3
}

func (c *Core) registerForward(seq, addr uint64, size uint8, ruu int32) {
	g0, g1 := granules(addr, size)
	ref := fwdRef{seq: seq, addr: addr, size: size, ruu: ruu}
	c.fwd.insert(g0, ref)
	if g1 != g0 {
		c.fwd.insert(g1, ref)
	}
}

func (c *Core) dropForward(seq, addr uint64, size uint8) {
	g0, g1 := granules(addr, size)
	c.fwd.remove(g0, seq)
	if g1 != g0 {
		c.fwd.remove(g1, seq)
	}
}

// commitForward re-tags a store's forwarding refs as committed into the given
// store buffer slot: the data is always ready, and later waiters park on the
// slot rather than the recycled RUU entry.
func (c *Core) commitForward(seq, addr uint64, size uint8, slot int) {
	g0, g1 := granules(addr, size)
	ruu := -int32(slot) - 1
	c.fwd.retag(g0, seq, ruu)
	if g1 != g0 {
		c.fwd.retag(g1, seq, ruu)
	}
}

// wakeChain re-routes every load parked on a store's waiter chain. The head
// is reset before routing and each link is read before its load is routed, so
// a load that re-parks on the same store mid-wake is safe.
func (c *Core) wakeChain(head *int32) {
	idx := *head
	*head = -1
	for idx >= 0 {
		next := c.entries[idx].waiterNext
		c.entries[idx].waiterNext = -1
		c.routeLoad(idx)
		idx = next
	}
}

// --- loads: ordering, forwarding, port scheduling ---

// minUnknownStoreSeq returns the sequence number of the oldest store whose
// address is not yet generated, or MaxUint64 if all are known.
func (c *Core) minUnknownStoreSeq() uint64 {
	for c.soHead < len(c.storeOrder) {
		ref := c.storeOrder[c.soHead]
		e := &c.entries[ref.idx]
		if e.seq == ref.seq && !e.addrDone {
			c.compactStoreOrder()
			return ref.seq
		}
		c.soHead++
	}
	c.storeOrder = c.storeOrder[:0]
	c.soHead = 0
	return math.MaxUint64
}

// compactStoreOrder slides the live suffix to the front once the consumed
// prefix dominates, so the backing array is reused instead of regrown (the
// old `storeOrder = storeOrder[1:]` pops leaked capacity forever).
func (c *Core) compactStoreOrder() {
	if c.soHead > 32 && c.soHead*2 >= len(c.storeOrder) {
		n := copy(c.storeOrder, c.storeOrder[c.soHead:])
		c.storeOrder = c.storeOrder[:n]
		c.soHead = 0
	}
}

// routeLoad decides what happens to a load whose address is generated:
// park on ordering, forward, park on a store, or queue for a cache port.
func (c *Core) routeLoad(idx int32) {
	e := &c.entries[idx]
	if c.minUnknownStoreSeq() < e.seq {
		e.state = stOrderParked
		c.orderParked = append(c.orderParked, idx)
		c.stats.OrderingStalls++
		return
	}
	switch best, disp := c.tryForward(idx); disp {
	case fwdServiced:
		c.stats.Forwards++
		if c.verify != nil {
			c.verify.ObserveForward(c.now, e.seq, best.seq)
		}
		c.schedule(c.now+1, event{kind: evMem, idx: idx})
		e.state = stMemWait
		return
	case fwdBlocked:
		e.state = stFwdParked
		var head *int32
		if best.ruu >= 0 {
			head = &c.entries[best.ruu].waiterHead
		} else {
			head = &c.storeBuf[-best.ruu-1].waiterHead
		}
		e.waiterNext = *head
		*head = idx
		c.stats.ForwardWaits++
		return
	}
	e.state = stMemPending
	c.pending.insert(ports.Request{Seq: e.seq, Addr: e.addr}, idx)
}

// fwdDisposition is the result of a forwarding lookup.
type fwdDisposition uint8

const (
	// fwdNone: no overlapping older store; the load goes to the cache.
	fwdNone fwdDisposition = iota
	// fwdServiced: a ready covering store services the load at zero latency.
	fwdServiced
	// fwdBlocked: the load must wait on the returned store sequence number
	// (unready data, or a partial overlap that cannot forward).
	fwdBlocked
)

// tryForward finds the youngest older store overlapping the load and decides
// the load's disposition; for fwdServiced and fwdBlocked the returned ref
// identifies that store (seq for reporting, ruu for where to park).
func (c *Core) tryForward(idx int32) (fwdRef, fwdDisposition) {
	e := &c.entries[idx]
	addr, size, seq := e.addr, e.size, e.seq
	g0, g1 := granules(addr, size)
	best := fwdRef{}
	found := false
	scan := func(g uint64) {
		for ni := *c.fwd.bucket(g); ni >= 0; ni = c.fwd.nodes[ni].next {
			n := &c.fwd.nodes[ni]
			if n.g != g {
				continue // bucket shared by another granule
			}
			ref := n.ref
			if ref.seq >= seq {
				continue
			}
			if ref.addr >= addr+uint64(size) || addr >= ref.addr+uint64(ref.size) {
				continue // no overlap
			}
			if !found || ref.seq > best.seq {
				best, found = ref, true
			}
		}
	}
	scan(g0)
	if g1 != g0 {
		scan(g1)
	}
	if !found {
		return best, fwdNone
	}
	covers := best.addr <= addr && best.addr+uint64(best.size) >= addr+uint64(size)
	ready := best.ruu < 0 || c.entries[best.ruu].state == stDone
	if covers && ready {
		return best, fwdServiced
	}
	// Partial overlap, or the matching store's data is not ready: wait on it.
	return best, fwdBlocked
}

// releaseOrderParked re-routes loads whose ordering barrier has cleared.
//
// The scan is skipped while the barrier sequence is unchanged since the last
// scan: every load parked since then saw the same barrier when it was routed
// (finite barrier values are strictly increasing — stores dispatch in order
// and the MaxUint64 "no barrier" state releases the whole park list), so no
// parked load can have become eligible.
func (c *Core) releaseOrderParked() {
	if len(c.orderParked) == 0 {
		return
	}
	min := c.minUnknownStoreSeq()
	if min == c.orderedMin {
		return
	}
	c.orderedMin = min
	kept := c.orderParked[:0]
	release := c.releaseScratch[:0]
	for _, idx := range c.orderParked {
		if c.entries[idx].seq < min {
			release = append(release, idx)
		} else {
			kept = append(kept, idx)
		}
	}
	c.orderParked = kept
	for _, idx := range release {
		c.routeLoad(idx)
	}
	c.releaseScratch = release
}

// --- commit ---

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		idx := int32(c.head)
		e := &c.entries[idx]
		if e.state != stDone {
			return
		}
		if e.isStore() {
			if c.sbCount == c.cfg.StoreBufferSize {
				c.stats.CommitStallStoreBuf++
				return
			}
			slot := c.sbHead + c.sbCount
			if slot >= c.cfg.StoreBufferSize {
				slot -= c.cfg.StoreBufferSize
			}
			// Waiters parked on the RUU entry migrate to the slot's chain.
			c.storeBuf[slot] = storeBufEntry{seq: e.seq, addr: e.addr, size: e.size,
				live: true, waiterHead: e.waiterHead}
			e.waiterHead = -1
			c.sbCount++
			c.sbUngranted++
			c.storeLive++
			c.commitForward(e.seq, e.addr, e.size, slot)
			c.stats.Stores++
			c.lsqCount--
		} else if e.isLoad() {
			c.stats.Loads++
			c.lsqCount--
		}
		if d := e.dst; d != isa.RegNone && c.lastWriter[d] == idx {
			c.lastWriter[d] = -1
		}
		e.state = stEmpty
		if c.head++; c.head == c.cfg.RUUSize {
			c.head = 0
		}
		c.count--
		c.stats.Committed++
	}
}

// --- memory port arbitration ---

func (c *Core) memoryIssue() {
	c.reqBuf = c.reqBuf[:0]
	c.reqIdx = c.reqIdx[:0]
	// Committed stores first: they are the oldest memory operations. The
	// scan visits FIFO order but only ungranted live slots contribute, so it
	// stops once all of them are collected (and never starts when none are).
	if c.sbUngranted > 0 {
		slot, left := c.sbHead, c.sbUngranted
		for i := 0; i < c.sbCount && len(c.reqBuf) < c.cfg.MemScanDepth; i++ {
			sb := &c.storeBuf[slot]
			cur := slot
			if slot++; slot == c.cfg.StoreBufferSize {
				slot = 0
			}
			if !sb.live || sb.granted {
				continue
			}
			c.reqBuf = append(c.reqBuf, ports.Request{Seq: sb.seq, Addr: sb.addr, Store: true})
			c.reqIdx = append(c.reqIdx, -int32(cur)-1)
			if left--; left == 0 {
				break
			}
		}
	}
	// The oldest pending loads fill the rest of the scan window. They are
	// copied, not aliased: the grant loop below removes granted loads from
	// the window and store grants can route newly woken loads into it.
	if n := c.cfg.MemScanDepth - len(c.reqBuf); n > 0 {
		reqs, idx := c.pending.front(n)
		c.reqBuf = append(c.reqBuf, reqs...)
		c.reqIdx = append(c.reqIdx, idx...)
	}
	if len(c.reqBuf) == 0 {
		// Still give stateful arbiters (LBIC store-queue drain) their cycle.
		c.grantBuf = c.arb.Grant(c.now, nil, c.grantBuf[:0])
		if c.verify != nil {
			c.verify.ObserveGrant(c.now, nil, c.grantBuf)
		}
		c.grantHist.Observe(0)
		return
	}
	c.grantBuf = c.arb.Grant(c.now, c.reqBuf, c.grantBuf[:0])
	if c.verify != nil {
		c.verify.ObserveGrant(c.now, c.reqBuf, c.grantBuf)
	}
	c.grantHist.Observe(len(c.grantBuf))
	for _, g := range c.grantBuf {
		r := c.reqBuf[g]
		id := c.reqIdx[g]
		c.stats.PortGrants++
		var token int64
		if r.Store {
			token = int64(c.cfg.RUUSize) + int64(-id-1)
		} else {
			token = int64(id)
		}
		out := c.hier.Access(c.now, r.Addr, r.Store, token)
		if c.verify != nil {
			c.verify.ObserveAccess(c.now, r.Seq, r.Store, out == cache.Blocked)
		}
		if c.events != nil {
			kind := trace.EvAccess
			if r.Store {
				kind = trace.EvWrite
			}
			c.events.Emit(trace.Event{Cycle: c.now, Kind: kind, Seq: int64(r.Seq),
				Bank: -1, Line: r.Addr >> c.lineShift, Cause: out.String()})
		}
		switch out {
		case cache.Blocked:
			c.stats.PortBlocked++
		default:
			if r.Store {
				slot := int(-id - 1)
				sb := &c.storeBuf[slot]
				sb.granted = true
				c.sbUngranted--
				c.dropForward(sb.seq, sb.addr, sb.size)
				c.wakeChain(&sb.waiterHead)
			} else {
				c.pending.remove(r.Seq)
				c.entries[id].state = stMemWait
			}
		}
	}
}

// storeWritten retires a written store from the buffer.
func (c *Core) storeWritten(slot int) {
	c.storeBuf[slot].live = false
	c.storeLive--
	c.lastProgress = c.now
	for c.sbCount > 0 {
		head := &c.storeBuf[c.sbHead]
		if head.live {
			break
		}
		if c.sbHead++; c.sbHead == c.cfg.StoreBufferSize {
			c.sbHead = 0
		}
		c.sbCount--
	}
}

// drainCompletions converts hierarchy completions into wheel events.
func (c *Core) drainCompletions() {
	for _, comp := range c.hier.Drain() {
		if comp.Token >= int64(c.cfg.RUUSize) {
			c.schedule(comp.At, event{kind: evWrite, idx: int32(comp.Token - int64(c.cfg.RUUSize))})
		} else {
			c.schedule(comp.At, event{kind: evMem, idx: int32(comp.Token)})
		}
	}
}

// --- issue ---

func (c *Core) fuAvailable(cl isa.Class) bool {
	n := c.cfg.FUCount[cl]
	if c.lat[cl].Issue <= 1 {
		return c.fuUsed[cl] < n
	}
	busy := c.fuBusy[cl]
	live := busy[:0]
	for _, rel := range busy {
		if rel > c.now {
			live = append(live, rel)
		}
	}
	c.fuBusy[cl] = live
	return len(live) < n
}

func (c *Core) fuOccupy(cl isa.Class) {
	issue := c.lat[cl].Issue
	if issue <= 1 {
		c.fuUsed[cl]++
		return
	}
	c.fuBusy[cl] = append(c.fuBusy[cl], c.now+uint64(issue))
}

// issue walks the ready set in age order: the bits from head to the end of
// the ring, then from slot 0 back up to head. An entry whose functional unit
// is busy is skipped and stays in the set for the next cycle. The walk stops
// when the issue budget is spent or every member counted at the start has
// been visited, so it never pays for the empty words past the youngest one.
func (c *Core) issue() {
	left := c.readyCount
	if left == 0 {
		return
	}
	for cl := range c.fuUsed {
		c.fuUsed[cl] = 0
	}
	budget := c.cfg.IssueWidth
	n := len(c.ready)
	w0 := c.head >> 6
	below := uint64(1)<<(c.head&63) - 1 // slots of w0 that precede head
	for k := 0; k <= n; k++ {
		w := w0 + k
		if w >= n {
			w -= n
		}
		word := c.ready[w]
		switch k {
		case 0:
			word &^= below
		case n:
			word &= below
		}
		for ; word != 0; word &= word - 1 {
			idx := int32(w<<6 | bits.TrailingZeros64(word))
			left--
			e := &c.entries[idx]
			if cl := e.class; c.fuAvailable(cl) {
				c.fuOccupy(cl)
				c.ready[w] &^= 1 << (idx & 63)
				c.readyCount--
				c.stats.Issued++
				c.stats.IssuedByClass[cl]++
				e.state = stIssued
				kind := int32(evExec)
				if e.isMem() {
					kind = evAGU
				}
				c.schedule(c.now+uint64(c.lat[cl].Total), event{kind: kind, idx: idx})
				if budget--; budget == 0 {
					return
				}
			}
			if left == 0 {
				return
			}
		}
	}
}

// --- dispatch ---

// peek exposes the next undispatched instruction without consuming it. The
// returned pointer aliases the lookahead buffer and is only valid until the
// next peek or dispatch.
func (c *Core) peek() (*trace.Dyn, bool) {
	if c.peeked {
		return &c.peekDyn, true
	}
	if c.streamEOF {
		return nil, false
	}
	if !c.stream.Next(&c.peekDyn) {
		c.streamEOF = true
		return nil, false
	}
	c.peeked = true
	return &c.peekDyn, true
}

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.cfg.MaxInsts > 0 && c.stats.Dispatched >= c.cfg.MaxInsts {
			return
		}
		if c.count == c.cfg.RUUSize {
			c.stats.DispatchStallRUU++
			return
		}
		dyn, ok := c.peek()
		if !ok {
			return
		}
		if dyn.IsMem() && c.lsqCount == c.cfg.LSQSize {
			c.stats.DispatchStallLSQ++
			return
		}
		c.peeked = false
		tail := c.head + c.count
		if tail >= c.cfg.RUUSize {
			tail -= c.cfg.RUUSize
		}
		idx := int32(tail)
		c.count++
		c.stats.Dispatched++

		dyn.Seq = c.nextSeq
		c.nextSeq++
		if c.verify != nil && dyn.IsMem() {
			c.verify.ObserveDispatch(dyn)
		}
		// Field by field, not *e = entry{...}: the literal would be built
		// on the stack and copied in wide moves that stall on its narrow
		// stores. Every path of the switch below sets the state.
		e := &c.entries[idx]
		e.seq, e.addr, e.class, e.size, e.dst = dyn.Seq, dyn.Addr, dyn.Class, dyn.Size, dyn.Dst
		e.addrDone = false
		e.waiterHead, e.waiterNext, e.depHead, e.depTail = -1, -1, -1, -1
		e.src1Ready = c.wireSource(dyn.Src1, idx, 1)
		e.src2Ready = c.wireSource(dyn.Src2, idx, 2)

		switch {
		case e.class == isa.ClassNone:
			e.state = stDone
		case e.isStore():
			c.lsqCount++
			c.storeOrder = append(c.storeOrder, orderRef{seq: e.seq, idx: idx})
			if e.src1Ready {
				c.pushReady(idx)
			} else {
				e.state = stWaiting
			}
		case e.isLoad():
			c.lsqCount++
			fallthrough
		default:
			if e.src1Ready && e.src2Ready {
				c.pushReady(idx)
			} else {
				e.state = stWaiting
			}
		}
		if d := e.dst; d != isa.RegNone {
			c.lastWriter[d] = idx
		}
	}
}

// wireSource links a source operand to its producer, reporting whether the
// operand is already available.
func (c *Core) wireSource(r isa.Reg, idx int32, operand int) bool {
	if r == isa.RegNone {
		return true
	}
	p := c.lastWriter[r]
	if p < 0 {
		return true
	}
	prod := &c.entries[p]
	if prod.state == stDone {
		return true
	}
	l := idx<<1 | int32(operand-1)
	c.depNext[l] = -1
	if prod.depTail < 0 {
		prod.depHead = l
	} else {
		c.depNext[prod.depTail] = l
	}
	prod.depTail = l
	return false
}
