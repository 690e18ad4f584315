package oracle

import (
	"fmt"

	"lbic/internal/core"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
	"lbic/internal/vm"
)

// granuleShift groups addresses into 8-byte granules for the checker's
// pending-store overlap index, mirroring the LSQ's disambiguation grain.
const granuleShift = 3

// Summary counts what a verified run actually checked, so "verify passed"
// is auditable: a run that never exercised forwarding or store draining
// proves less than one that did.
type Summary struct {
	// Cycles is the number of arbitration cycles observed.
	Cycles uint64
	// Grants counts successful (non-blocked) cache accesses checked.
	Grants uint64
	// Blocked counts accesses the hierarchy rejected (retried later).
	Blocked uint64
	// Loads counts load values checked against the shadow memory.
	Loads uint64
	// Forwards counts store-to-load forwards checked against the pending
	// store's value.
	Forwards uint64
	// Stores counts stores applied to the shadow memory in a legal order.
	Stores uint64
}

// memRec is one dispatched memory operation awaiting its access.
type memRec struct {
	addr  uint64
	size  int
	value uint64
}

// Checker is the invariant monitor. It implements cpu.Verifier: the timed
// core reports every dispatch, grant, cache access, and store-to-load
// forward, and the checker replays them against a shadow value-tracking
// memory, failing the run on the first violated invariant. The zero cost of
// an unattached checker is the point: verification is opt-in per run.
type Checker struct {
	arb ports.Arbiter
	gv  *GrantValidator
	qm  *queueMonitor

	base   *vm.Memory        // initial data image
	shadow map[uint64]byte   // bytes written by applied stores
	stores map[uint64]memRec // dispatched stores not yet applied
	loads  map[uint64]memRec // dispatched loads not yet serviced
	// storeIdx maps an 8-byte granule to the pending stores touching it,
	// so overlap checks do not scan every pending store.
	storeIdx map[uint64][]uint64
	// granted marks seqs that completed a cache access; seqs are dense
	// instruction numbers, so a bitmap beats a map at verify rates.
	granted []uint64

	keepValues bool
	loadValues map[uint64]uint64

	sum Summary
	err error
}

// NewChecker returns a checker for runs of prog through arb. prog may be
// nil when the checker is driven synthetically (unit tests, fuzzing).
func NewChecker(prog *isa.Program, arb ports.Arbiter) *Checker {
	base := vm.NewMemory()
	if prog != nil {
		for _, pg := range prog.Pages {
			base.Copy(pg.Addr, pg.Bytes)
		}
	}
	return &Checker{
		arb:      arb,
		gv:       NewGrantValidator(arb),
		qm:       newQueueMonitor(arb),
		base:     base,
		shadow:   make(map[uint64]byte),
		stores:   make(map[uint64]memRec),
		loads:    make(map[uint64]memRec),
		storeIdx: make(map[uint64][]uint64),
	}
}

// KeepLoadValues makes the checker retain every checked load value, keyed by
// sequence number, for differential comparison against RunReference.
func (c *Checker) KeepLoadValues() {
	c.keepValues = true
	c.loadValues = make(map[uint64]uint64)
}

// LoadValues returns the retained load values (nil unless KeepLoadValues).
func (c *Checker) LoadValues() map[uint64]uint64 { return c.loadValues }

// Summary returns what has been checked so far.
func (c *Checker) Summary() Summary { return c.sum }

// Err implements cpu.Verifier: the first violated invariant, or nil.
func (c *Checker) Err() error { return c.err }

func (c *Checker) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("oracle: "+format, args...)
	}
}

func granules(addr uint64, size int) (lo, hi uint64) {
	return addr >> granuleShift, (addr + uint64(size) - 1) >> granuleShift
}

func overlaps(a memRec, addr uint64, size int) bool {
	return a.addr < addr+uint64(size) && addr < a.addr+uint64(a.size)
}

// ObserveDispatch implements cpu.Verifier: a memory instruction entered the
// window with its resolved address and ground-truth value.
func (c *Checker) ObserveDispatch(d *trace.Dyn) {
	if !d.IsMem() {
		return
	}
	rec := memRec{addr: d.Addr, size: int(d.Size), value: d.Value}
	if rec.size <= 0 {
		c.fail("seq %d dispatched a memory access of size %d", d.Seq, rec.size)
		return
	}
	if d.IsStore() {
		c.stores[d.Seq] = rec
		lo, hi := granules(rec.addr, rec.size)
		for g := lo; g <= hi; g++ {
			c.storeIdx[g] = append(c.storeIdx[g], d.Seq)
		}
		return
	}
	c.loads[d.Seq] = rec
}

// ObserveGrant implements cpu.Verifier: one arbitration cycle happened with
// the given ready list and grant set. It runs the per-organization grant
// validator and the store-queue FIFO monitor.
func (c *Checker) ObserveGrant(now uint64, ready []ports.Request, granted []int) {
	c.sum.Cycles++
	if err := c.gv.Validate(now, ready, granted); err != nil {
		c.fail("%s", err)
	}
	if c.qm != nil {
		if err := c.qm.check(now); err != nil {
			c.fail("%s", err)
		}
	}
}

// ObserveAccess implements cpu.Verifier: a granted request reached the cache
// hierarchy. Blocked accesses are retried by the core and do not count as
// serviced; a successful access is checked and may not recur.
func (c *Checker) ObserveAccess(now uint64, seq uint64, store, blocked bool) {
	if blocked {
		c.sum.Blocked++
		return
	}
	if c.wasGranted(seq) {
		c.fail("cycle %d: seq %d completed a cache access twice", now, seq)
		return
	}
	c.setGranted(seq)
	c.sum.Grants++
	if store {
		c.applyStore(now, seq)
		return
	}
	c.checkLoad(now, seq)
}

func (c *Checker) wasGranted(seq uint64) bool {
	w := seq >> 6
	return w < uint64(len(c.granted)) && c.granted[w]&(1<<(seq&63)) != 0
}

func (c *Checker) setGranted(seq uint64) {
	w := seq >> 6
	for uint64(len(c.granted)) <= w {
		c.granted = append(c.granted, 0)
	}
	c.granted[w] |= 1 << (seq & 63)
}

// oldestOverlapping returns the oldest pending store older than seq whose
// bytes overlap [addr, addr+size).
func (c *Checker) oldestOverlapping(addr uint64, size int, seq uint64) (uint64, bool) {
	best, found := uint64(0), false
	lo, hi := granules(addr, size)
	for g := lo; g <= hi; g++ {
		for _, s := range c.storeIdx[g] {
			if s >= seq {
				continue
			}
			if rec, ok := c.stores[s]; ok && overlaps(rec, addr, size) && (!found || s < best) {
				best, found = s, true
			}
		}
	}
	return best, found
}

func (c *Checker) applyStore(now uint64, seq uint64) {
	rec, ok := c.stores[seq]
	if !ok {
		c.fail("cycle %d: store seq %d accessed the cache but was never dispatched", now, seq)
		return
	}
	if older, found := c.oldestOverlapping(rec.addr, rec.size, seq); found {
		c.fail("cycle %d: store seq %d (addr %#x) wrote the array before older overlapping store seq %d",
			now, seq, rec.addr, older)
		return
	}
	for i := 0; i < rec.size; i++ {
		c.shadow[rec.addr+uint64(i)] = byte(rec.value >> (8 * uint(i)))
	}
	c.removeStore(seq, rec)
	c.sum.Stores++
}

func (c *Checker) removeStore(seq uint64, rec memRec) {
	delete(c.stores, seq)
	lo, hi := granules(rec.addr, rec.size)
	for g := lo; g <= hi; g++ {
		list := c.storeIdx[g]
		for i, s := range list {
			if s == seq {
				c.storeIdx[g] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(c.storeIdx[g]) == 0 {
			delete(c.storeIdx, g)
		}
	}
}

// shadowRead assembles a little-endian value from the shadow memory,
// falling back to the program's initial data image for untouched bytes.
func (c *Checker) shadowRead(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		b, ok := c.shadow[addr+uint64(i)]
		if !ok {
			b = c.base.LoadByte(addr + uint64(i))
		}
		v |= uint64(b) << (8 * uint(i))
	}
	return v
}

func (c *Checker) checkLoad(now uint64, seq uint64) {
	rec, ok := c.loads[seq]
	if !ok {
		c.fail("cycle %d: load seq %d accessed the cache but was never dispatched", now, seq)
		return
	}
	if older, found := c.oldestOverlapping(rec.addr, rec.size, seq); found {
		c.fail("cycle %d: load seq %d (addr %#x) bypassed older overlapping store seq %d still pending",
			now, seq, rec.addr, older)
		return
	}
	if got := c.shadowRead(rec.addr, rec.size); got != rec.value {
		c.fail("cycle %d: load seq %d at %#x: timed machine carries value %#x, oracle memory holds %#x",
			now, seq, rec.addr, rec.value, got)
		return
	}
	if c.keepValues {
		c.loadValues[seq] = rec.value
	}
	delete(c.loads, seq)
	c.sum.Loads++
}

// ObserveForward implements cpu.Verifier: the LSQ serviced loadSeq by
// forwarding from storeSeq instead of accessing the cache. The store must
// still be pending, older than the load, cover it entirely, carry the bytes
// the load's ground truth says, and no younger overlapping store may sit
// between them.
func (c *Checker) ObserveForward(now uint64, loadSeq, storeSeq uint64) {
	l, ok := c.loads[loadSeq]
	if !ok {
		c.fail("cycle %d: forward to load seq %d which was never dispatched (or already serviced)", now, loadSeq)
		return
	}
	s, ok := c.stores[storeSeq]
	if !ok {
		c.fail("cycle %d: load seq %d forwarded from store seq %d which is not pending", now, loadSeq, storeSeq)
		return
	}
	if storeSeq >= loadSeq {
		c.fail("cycle %d: load seq %d forwarded from younger store seq %d", now, loadSeq, storeSeq)
		return
	}
	if s.addr > l.addr || l.addr+uint64(l.size) > s.addr+uint64(s.size) {
		c.fail("cycle %d: load seq %d [%#x,+%d) forwarded from store seq %d [%#x,+%d) which does not cover it",
			now, loadSeq, l.addr, l.size, storeSeq, s.addr, s.size)
		return
	}
	// A pending store younger than the source but older than the load and
	// overlapping the load's bytes would make the forwarded value stale.
	lo, hi := granules(l.addr, l.size)
	for g := lo; g <= hi; g++ {
		for _, mid := range c.storeIdx[g] {
			if mid <= storeSeq || mid >= loadSeq {
				continue
			}
			if rec, ok := c.stores[mid]; ok && overlaps(rec, l.addr, l.size) {
				c.fail("cycle %d: load seq %d forwarded from store seq %d past newer overlapping store seq %d",
					now, loadSeq, storeSeq, mid)
				return
			}
		}
	}
	want := s.value >> (8 * uint(l.addr-s.addr))
	if l.size < 8 {
		want &= 1<<(8*uint(l.size)) - 1
	}
	if want != l.value {
		c.fail("cycle %d: load seq %d forwarded %#x from store seq %d, ground truth is %#x",
			now, loadSeq, l.value, storeSeq, want)
		return
	}
	if c.keepValues {
		c.loadValues[loadSeq] = l.value
	}
	delete(c.loads, loadSeq)
	c.sum.Forwards++
}

// Finish closes the run: every dispatched operation must have been serviced,
// and (when final is non-nil) the shadow memory must agree byte for byte
// with the reference machine's final memory. It returns the first violation
// recorded at any point in the run.
func (c *Checker) Finish(final *vm.Memory) error {
	if c.err != nil {
		return c.err
	}
	if n := len(c.stores); n != 0 {
		return fmt.Errorf("oracle: %d dispatched stores were never written to the cache", n)
	}
	if n := len(c.loads); n != 0 {
		return fmt.Errorf("oracle: %d dispatched loads were never serviced", n)
	}
	if final != nil {
		for addr, b := range c.shadow {
			if got := final.LoadByte(addr); got != b {
				return fmt.Errorf("oracle: final memory diverges at %#x: reference holds %#x, timed run implies %#x",
					addr, got, b)
			}
		}
	}
	return nil
}

// queueSource abstracts the two queue-backed arbiters for the FIFO monitor.
type queueSource interface {
	banks() int
	depth() int
	lines(b int, dst []uint64) []uint64
}

type lbicQueues struct{ a *core.LBIC }

func (q lbicQueues) banks() int                         { return q.a.Config().Banks }
func (q lbicQueues) depth() int                         { return q.a.Config().StoreQueueDepth }
func (q lbicQueues) lines(b int, dst []uint64) []uint64 { return q.a.StoreQueueLines(b, dst) }

type bsqQueues struct{ a *ports.BankedSQ }

func (q bsqQueues) banks() int                         { return q.a.Selector().Banks() }
func (q bsqQueues) depth() int                         { return q.a.Depth() }
func (q bsqQueues) lines(b int, dst []uint64) []uint64 { return q.a.StoreQueueLines(b, dst) }

// codedQueues adapts the coded arbiter's per-group code-update queues (one
// per parity bank) to the same FIFO monitor.
type codedQueues struct{ a *ports.Coded }

func (q codedQueues) banks() int                         { return q.a.Config().ParityBanks }
func (q codedQueues) depth() int                         { return q.a.Depth() }
func (q codedQueues) lines(b int, dst []uint64) []uint64 { return q.a.UpdateQueueLines(b, dst) }

// queueMonitor snapshots every store queue each cycle and asserts FIFO
// evolution: between consecutive cycles a queue either keeps its entries
// (possibly appending at the back) or retires exactly its front entry.
type queueMonitor struct {
	src  queueSource
	name string
	prev [][]uint64
	cur  [][]uint64
}

// newQueueMonitor returns a monitor for arb's store queues, or nil when the
// organization has none.
func newQueueMonitor(arb ports.Arbiter) *queueMonitor {
	var src queueSource
	switch a := arb.(type) {
	case *core.LBIC:
		src = lbicQueues{a}
	case *ports.BankedSQ:
		src = bsqQueues{a}
	case *ports.Coded:
		src = codedQueues{a}
	default:
		return nil
	}
	n := src.banks()
	return &queueMonitor{
		src:  src,
		name: arb.Name(),
		prev: make([][]uint64, n),
		cur:  make([][]uint64, n),
	}
}

func hasPrefix(q, prefix []uint64) bool {
	if len(prefix) > len(q) {
		return false
	}
	for i := range prefix {
		if q[i] != prefix[i] {
			return false
		}
	}
	return true
}

// check snapshots the queues after one Grant and validates the transition
// from the previous cycle.
func (m *queueMonitor) check(now uint64) error {
	for b := 0; b < m.src.banks(); b++ {
		m.cur[b] = m.src.lines(b, m.cur[b][:0])
		if len(m.cur[b]) > m.src.depth() {
			return fmt.Errorf("cycle %d: %s bank %d store queue holds %d lines, capacity %d",
				now, m.name, b, len(m.cur[b]), m.src.depth())
		}
		// A queue either keeps its entries (appending at the back) or —
		// on an idle bank cycle, when nothing can enqueue — retires
		// exactly its front entry.
		ok := hasPrefix(m.cur[b], m.prev[b]) ||
			(len(m.prev[b]) > 0 && len(m.cur[b]) == len(m.prev[b])-1 &&
				hasPrefix(m.prev[b][1:], m.cur[b]))
		if !ok {
			return fmt.Errorf("cycle %d: %s bank %d store queue %v did not evolve FIFO from %v",
				now, m.name, b, m.cur[b], m.prev[b])
		}
		m.prev[b], m.cur[b] = m.cur[b], m.prev[b]
	}
	return nil
}
