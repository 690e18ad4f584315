package cpu

// CPI stall accounting. Every simulated cycle is attributed to exactly one
// cause, so the resulting stall stack sums to the run's cycle count and a
// cycle of lost IPC can be charged to the structure that lost it — the
// visibility the paper's §3 characterization of banked-cache plateaus
// rests on.
//
// Attribution follows the oldest instruction in the window (the commit
// bottleneck), with structural dispatch stalls charged only when the head
// itself is not blocked on memory: a cycle in which the head waits on a
// cache port while the RUU is also full is a port problem, not a window
// problem — enlarging the window would not commit anything sooner.

// StallCause classifies one simulated cycle.
type StallCause int

const (
	// StallCommitting: at least one instruction committed this cycle.
	StallCommitting StallCause = iota
	// StallStoreBufFull: commit halted because the store buffer was full.
	StallStoreBufFull
	// StallMemWait: the head is a memory access in flight in the cache
	// hierarchy (a miss, or a hit's latency) — "waiting on miss".
	StallMemWait
	// StallMemPort: the head is a load that has its address but no cache
	// port grant — "waiting on port", the cost the LBIC attacks.
	StallMemPort
	// StallLSQFull: nothing committed and dispatch stalled on a full LSQ.
	StallLSQFull
	// StallROBFull: nothing committed and dispatch stalled on a full RUU.
	StallROBFull
	// StallExec: the head is waiting on operands, a functional unit, or an
	// in-flight execution (including a store awaiting its data).
	StallExec
	// StallDrained: the window is empty — the stream is exhausted (or the
	// instruction budget reached) and only the store buffer drains.
	StallDrained

	// NumStallCauses sizes per-cause arrays.
	NumStallCauses = int(StallDrained) + 1
)

var stallCauseNames = [NumStallCauses]string{
	"committing",
	"store-buffer-full",
	"waiting-on-miss",
	"waiting-on-port",
	"lsq-full",
	"rob-full",
	"exec",
	"drained",
}

// String returns the cause's report name.
func (s StallCause) String() string {
	if s < 0 || int(s) >= NumStallCauses {
		return "cause(?)"
	}
	return stallCauseNames[s]
}

// StallCauseNames returns the report names in StallCause order.
func StallCauseNames() []string {
	names := make([]string, NumStallCauses)
	copy(names, stallCauseNames[:])
	return names
}

// accountCycle attributes the cycle that just executed. The arguments are
// the relevant counters' values at the start of the cycle; comparing
// against the live stats reveals what happened during it.
func (c *Core) accountCycle(commit0, sbStall0, ruuStall0, lsqStall0 uint64) {
	s := &c.stats
	var cause StallCause
	switch {
	case s.Committed > commit0:
		cause = StallCommitting
	case s.CommitStallStoreBuf > sbStall0:
		cause = StallStoreBufFull
	case c.count == 0:
		cause = StallDrained
	default:
		switch c.entries[c.head].state {
		case stMemWait:
			cause = StallMemWait
		case stMemPending:
			cause = StallMemPort
		default:
			switch {
			case s.DispatchStallLSQ > lsqStall0:
				cause = StallLSQFull
			case s.DispatchStallRUU > ruuStall0:
				cause = StallROBFull
			default:
				cause = StallExec
			}
		}
	}
	s.StallCycles[cause]++

	// Occupancy is sampled at commit boundaries, not wall cycles: the gauges
	// describe the window the program actually uses when it makes progress,
	// and stall cycles — which fast-forward elides in bulk — contribute no
	// samples, so a fast-forwarded run reports identical occupancy.
	if cause == StallCommitting {
		c.ruuOcc.Sample(uint64(c.count))
		c.lsqOcc.Sample(uint64(c.lsqCount))
		c.sbOcc.Sample(uint64(c.storeLive))
	}
}

// accountSkipped bulk-attributes n fast-forwarded idle cycles exactly as n
// Step calls would have: the same stall cause, the same per-cycle dispatch
// and commit stall counters, and n empty-grant histogram observations. It
// must only be called under idleCycles' guarantees (no commit, no event, no
// grantable request for the whole span), under which every per-cycle decision
// below is constant.
func (c *Core) accountSkipped(n uint64) {
	s := &c.stats
	commitBlockedOnSB := false
	if c.count > 0 {
		e := &c.entries[c.head]
		if e.state == stDone && e.isStore() && c.sbCount == c.cfg.StoreBufferSize {
			commitBlockedOnSB = true
			s.CommitStallStoreBuf += n
		}
	}
	dispatchRUU, dispatchLSQ := false, false
	if !c.fetchExhausted() {
		if c.count == c.cfg.RUUSize {
			dispatchRUU = true
			s.DispatchStallRUU += n
		} else if dyn, ok := c.peek(); ok && dyn.IsMem() && c.lsqCount == c.cfg.LSQSize {
			dispatchLSQ = true
			s.DispatchStallLSQ += n
		}
	}
	var cause StallCause
	switch {
	case commitBlockedOnSB:
		cause = StallStoreBufFull
	case c.count == 0:
		cause = StallDrained
	default:
		switch c.entries[c.head].state {
		case stMemWait:
			cause = StallMemWait
		case stMemPending:
			cause = StallMemPort
		default:
			switch {
			case dispatchLSQ:
				cause = StallLSQFull
			case dispatchRUU:
				cause = StallROBFull
			default:
				cause = StallExec
			}
		}
	}
	s.StallCycles[cause] += n
	c.grantHist.ObserveN(0, n)
}
