package cpu

// Introspection accessors used by the pipeline tracer and diagnostics. They
// expose occupancy snapshots without letting callers mutate the pipeline.

// InFlight returns the number of instructions currently in the RUU.
func (c *Core) InFlight() int { return c.count }

// LSQLen returns the number of memory operations currently in the LSQ.
func (c *Core) LSQLen() int { return c.lsqCount }

// ReadyLen returns the number of ready instructions awaiting issue.
func (c *Core) ReadyLen() int { return c.readyCount }

// MemPendingLen returns the number of loads waiting for a cache port.
func (c *Core) MemPendingLen() int { return c.pending.len() }

// StoreBufferLen returns the committed stores not yet written to the cache.
func (c *Core) StoreBufferLen() int { return c.storeLive }

// OrderParkedLen returns loads blocked on unknown older store addresses.
func (c *Core) OrderParkedLen() int { return len(c.orderParked) }

// HeadState reports the kind and state of the oldest RUU entry, e.g.
// "load/mem-wait"; "empty" when the window is empty. For diagnostics.
func (c *Core) HeadState() string {
	if c.count == 0 {
		return "empty"
	}
	e := &c.entries[c.head]
	kind := "alu"
	if e.isLoad() {
		kind = "load"
	} else if e.isStore() {
		kind = "store"
	}
	return kind + "/" + e.state.String()
}
