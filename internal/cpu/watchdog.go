package cpu

// Forward-progress watchdog. A wide out-of-order core with a pluggable,
// possibly user-supplied port arbiter can hang in ways no single queue bound
// catches: an arbiter that never grants, a store queue that never drains, a
// combining policy that starves one bank. The watchdog generalizes the
// starvation limit ScenarioCycles applies to bare arbiters: if no instruction
// commits and no committed store retires for WatchdogCycles consecutive
// cycles, the run aborts with a HangError describing exactly what is stuck —
// which turns a hung simulation into an actionable per-cell error instead of
// a wedged process, and is what makes the sweep runner's per-cell timeouts a
// backstop rather than the primary defense.

import (
	"fmt"
	"strings"

	"lbic/internal/ports"
)

// DefaultWatchdogCycles is the forward-progress limit applied when
// Config.WatchdogCycles is zero. The baseline core drains its entire
// 1024-entry window through a single ideal port in well under ten thousand
// cycles even when every access misses to memory, so a fifty-times-larger
// no-progress window only ever indicates a genuine hang.
const DefaultWatchdogCycles = 200_000

// HangError reports a forward-progress watchdog trip: the core went
// WatchdogCycles cycles without committing an instruction or retiring a
// committed store. Its fields snapshot the stuck pipeline so the hang is
// diagnosable from the error alone.
type HangError struct {
	// Cycle is the cycle at which the watchdog tripped; Window is how many
	// cycles had passed without forward progress.
	Cycle  uint64
	Window uint64
	// Committed and Dispatched count instructions at the trip point.
	Committed  uint64
	Dispatched uint64
	// Occupancies of the major structures.
	RUUOccupancy      int
	LSQOccupancy      int
	StoreBufOccupancy int
	// MemPending counts loads holding addresses but no cache-port grant;
	// OrderParked counts loads blocked on unknown older store addresses.
	MemPending  int
	OrderParked int
	// OldestSeq and OldestState identify the instruction the pipeline is
	// blocked behind: the head of the RUU, or the oldest committed store
	// ("store-buffer") when only the store buffer remains.
	OldestSeq   uint64
	OldestState string
	// Arbiter is the port arbiter's self-description (per-bank pending and
	// store-queue state) when it implements ports.StateDumper, else "".
	Arbiter string
}

// Error implements error with a single-line diagnostic dump.
func (e *HangError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cpu: no forward progress for %d cycles (cycle %d): oldest blocked seq %d (%s); committed %d of %d dispatched; RUU %d, LSQ %d, store buffer %d, %d loads awaiting ports, %d order-parked",
		e.Window, e.Cycle, e.OldestSeq, e.OldestState,
		e.Committed, e.Dispatched,
		e.RUUOccupancy, e.LSQOccupancy, e.StoreBufOccupancy,
		e.MemPending, e.OrderParked)
	if e.Arbiter != "" {
		fmt.Fprintf(&b, "; arbiter %s", e.Arbiter)
	}
	return b.String()
}

// hangError snapshots the stuck pipeline into a HangError.
func (c *Core) hangError() error {
	e := &HangError{
		Cycle:             c.now,
		Window:            c.now - c.lastProgress,
		Committed:         c.stats.Committed,
		Dispatched:        c.stats.Dispatched,
		RUUOccupancy:      c.count,
		LSQOccupancy:      c.lsqCount,
		StoreBufOccupancy: c.storeLive,
		MemPending:        c.pending.len(),
		OrderParked:       len(c.orderParked),
		OldestState:       c.HeadState(),
	}
	if c.count > 0 {
		e.OldestSeq = c.entries[c.head].seq
	} else {
		// Only the committed store buffer remains; its head is the blocker.
		for i := 0; i < c.sbCount; i++ {
			sb := &c.storeBuf[(c.sbHead+i)%c.cfg.StoreBufferSize]
			if sb.live {
				e.OldestSeq = sb.seq
				e.OldestState = "store-buffer"
				break
			}
		}
	}
	if d, ok := c.arb.(ports.StateDumper); ok {
		e.Arbiter = d.DumpState()
	}
	return e
}
