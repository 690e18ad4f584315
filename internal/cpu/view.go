package cpu

import (
	"fmt"
	"io"
)

// PipelineView selects a per-cycle pipeline occupancy timeline of a run,
// written to W: a column header, then per printed cycle the commits and
// issues, window, LSQ and ready-queue occupancy, loads awaiting ports, the
// committed store buffer, port grants, and the state of the oldest
// instruction as the cycle began. It shows *why* a port organization
// stalls: a banked run shows the memory queue backing up while the same
// cycle window under an LBIC drains it. Write errors are not reported.
type PipelineView struct {
	W io.Writer
	// Skip is the first cycle printed. When the run ends before it, nothing
	// is written, not even the header.
	Skip uint64
	// Cycles bounds the number of printed lines (0 = all). It bounds the
	// output, not the run, which still completes.
	Cycles uint64
	// Every prints one line per this many cycles (0 or 1 = every cycle),
	// aligned to absolute cycle numbers rather than to Skip: Skip=1003,
	// Every=10 first prints cycle 1010, so lines from runs with different
	// warm-ups land on comparable cycles.
	Every uint64
}

// viewState is an attached PipelineView and its progress.
type viewState struct {
	PipelineView
	printed uint64
	// head is the oldest instruction's state as the next cycle begins,
	// captured at the end of this one only when the next cycle prints
	// (HeadState builds a string).
	head string
	// Counters at the end of the previous cycle, for per-cycle deltas.
	committed, issued, grants uint64
}

// SetPipelineView attaches the timeline v. Set it before the first Step. A
// core with a view steps every cycle (no fast-forward), so the view sees
// each one; its statistics are unchanged, since fast-forward is exact.
func (c *Core) SetPipelineView(v PipelineView) {
	if v.Every == 0 {
		v.Every = 1
	}
	c.view = &viewState{PipelineView: v}
	if c.view.prints(c.now) {
		c.view.head = c.HeadState()
	}
}

// prints reports whether cycle now falls in the printed window.
func (v *viewState) prints(now uint64) bool {
	return now >= v.Skip && now%v.Every == 0 && (v.Cycles == 0 || v.printed < v.Cycles)
}

// observe is called by Step at the end of every cycle, while c.now is still
// the cycle just stepped.
func (v *viewState) observe(c *Core) {
	st := &c.stats
	if v.prints(c.now) {
		if v.printed == 0 {
			fmt.Fprintf(v.W, "%8s %4s %4s %5s %5s %5s %5s %5s %4s  %s\n",
				"cycle", "com", "iss", "ruu", "lsq", "rdy", "memq", "stbuf", "grnt", "head")
		}
		fmt.Fprintf(v.W, "%8d %4d %4d %5d %5d %5d %5d %5d %4d  %s\n",
			c.now, st.Committed-v.committed, st.Issued-v.issued,
			c.InFlight(), c.LSQLen(), c.ReadyLen(), c.MemPendingLen(), c.StoreBufferLen(),
			st.PortGrants-v.grants, v.head)
		v.printed++
	}
	v.committed, v.issued, v.grants = st.Committed, st.Issued, st.PortGrants
	if v.prints(c.now + 1) {
		v.head = c.HeadState()
	}
}
