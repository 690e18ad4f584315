package cpu

import "math"

// Fast-forward across provably idle cycles.
//
// Long miss latencies leave the core stepping through stretches of cycles in
// which nothing can happen: the window is stalled on an in-flight fill, no
// instruction is ready to issue, no request can be granted, and the only
// future state change is an already-scheduled event. Simulating those cycles
// one at a time is pure overhead, so after each Step the run loop asks
// idleCycles for a span it may skip in bulk. The skip is exact, not an
// approximation: every per-cycle statistic a stepped run would have recorded
// (stall attribution, dispatch/commit stall counters, grant histogram, MSHR
// occupancy) is replicated by accountSkipped and Hierarchy.SkipCycles, and
// the watchdog and MaxCycles trip points are honored by clamping the target
// so the tripping Step still executes. A fast-forwarded run is therefore
// bit-identical to a stepped run — a property fastforward_test.go asserts.
//
// Fast-forward is disabled when a Verifier is attached (the oracle observes
// every cycle) and when the arbiter does not implement ports.Quiescer or
// reports queued work (a draining store queue changes state on idle cycles).

// idleCycles returns how many cycles starting at c.now are provably inert:
// no event due, no hierarchy activity, no grantable request, commit and
// dispatch blocked, and the arbiter quiescent. Zero means step normally.
func (c *Core) idleCycles() uint64 {
	if c.verify != nil || c.arbQuiescent == nil || !c.arbQuiescent() {
		return 0
	}
	if c.readyCount > 0 || c.pending.len() > 0 || c.sbUngranted > 0 {
		return 0
	}
	// Commit must be blocked for the whole span: either the window is empty,
	// or its head cannot retire (not done, or a store facing a full buffer).
	if c.count > 0 {
		e := &c.entries[c.head]
		if e.state == stDone && !(e.isStore() && c.sbCount == c.cfg.StoreBufferSize) {
			return 0
		}
	}
	// Dispatch must be blocked: stream exhausted, window full, or the next
	// instruction needs an LSQ slot that is not there.
	if !c.fetchExhausted() && c.count < c.cfg.RUUSize {
		if dyn, ok := c.peek(); ok && !(dyn.IsMem() && c.lsqCount == c.cfg.LSQSize) {
			return 0
		}
	}
	// The peek probe above may have just discovered stream EOF, completing
	// the run: never skip past the end.
	if c.Done() {
		return 0
	}
	// The span ends at the first cycle with scheduled work. NextActivity is
	// asked from now-1 so a fill due exactly at cycle now is seen (Step for
	// now-1 has already run, so now >= 1 here).
	target := c.hier.NextActivity(c.now - 1)
	for d := uint64(0); d < wheelSize; d++ {
		if len(c.wheel[(c.now+d)%wheelSize]) > 0 {
			if t := c.now + d; t < target {
				target = t
			}
			break
		}
	}
	// The watchdog trips at lastProgress+watchdog and MaxCycles errors at
	// MaxCycles; both Steps must execute so the run fails identically.
	if c.watchdog != 0 {
		if t := c.lastProgress + c.watchdog; t < target {
			target = t
		}
	}
	if c.cfg.MaxCycles > 0 && c.cfg.MaxCycles < target {
		target = c.cfg.MaxCycles
	}
	if target <= c.now || target == math.MaxUint64 {
		return 0
	}
	return target - c.now
}

// skipIdle elides n idle cycles, replicating their per-cycle accounting.
func (c *Core) skipIdle(n uint64) {
	c.accountSkipped(n)
	c.hier.SkipCycles(n)
	c.now += n
	c.fastForwarded += n
}

// FastForwarded returns the cycles elided by fast-forward (a subset of
// Stats().Cycles, which counts them as simulated — they are, in bulk).
func (c *Core) FastForwarded() uint64 { return c.fastForwarded }
