package ports

import "fmt"

// CodedConfig parameterizes the coded-banks organization.
type CodedConfig struct {
	// Banks is the number of single-ported data banks (a power of two).
	Banks int
	// ParityBanks is the number of XOR parity banks; the data banks are
	// split into ParityBanks contiguous groups of Banks/ParityBanks members
	// and parity bank g stores the XOR code across group g.
	ParityBanks int
	// LineSize is the interleaving granularity in bytes (a power of two).
	LineSize int
	// UpdateQueueDepth bounds the lines of pending code updates per parity
	// bank (0 selects 8). Stores stall when their group's queue is full.
	UpdateQueueDepth int
	// LinePorts, when >= 2, composes LBIC-style line-buffer combining over
	// the coded banks: up to LinePorts same-line accesses share one bank
	// port per cycle. 0 disables combining (the plain coded design).
	LinePorts int
	// Speculative selects the single-read reconstruction variant: a second
	// read of a busy bank issues one speculative parity access instead of
	// reading the whole group, and replays when the code is stale.
	Speculative bool
}

// NewCoded returns a coded-banks arbiter, which emulates multi-ported reads
// on single-ported banks with XOR coding, after "Achieving Multi-Port Memory
// Performance on Single-Port Memory with Coding Techniques": P parity banks
// each store the XOR of a group of data banks, so when two reads target the
// same busy bank in one cycle the second is reconstructed by reading the
// other group members plus the parity bank — consuming their idle ports —
// instead of stalling. The speculative variant issues a single parity read
// and replays on conflict (stale code), per the read-port-reduction
// follow-up. Writes pay a code-update cost: every store enqueues its line on
// the group's update queue (coalescing by line) and the queue retires one
// line per idle parity-bank cycle; while updates are pending the group's
// code is stale and cannot serve reconstructions.
func NewCoded(cfg CodedConfig) (*Banks, error) {
	if cfg.UpdateQueueDepth == 0 {
		cfg.UpdateQueueDepth = 8
	}
	if cfg.UpdateQueueDepth < 1 {
		return nil, fmt.Errorf("ports: code-update queue depth %d is not positive", cfg.UpdateQueueDepth)
	}
	if cfg.ParityBanks < 1 {
		return nil, fmt.Errorf("ports: coded parity bank count %d < 1", cfg.ParityBanks)
	}
	if cfg.Banks < cfg.ParityBanks || cfg.Banks%cfg.ParityBanks != 0 {
		return nil, fmt.Errorf("ports: %d parity banks do not evenly divide %d data banks", cfg.ParityBanks, cfg.Banks)
	}
	if cfg.LinePorts == 1 || cfg.LinePorts < 0 {
		return nil, fmt.Errorf("ports: coded line ports %d (want 0 for no combining, or >= 2)", cfg.LinePorts)
	}
	sel, err := NewBankSelector(cfg.Banks, cfg.LineSize)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("coded-%dx%d", cfg.Banks, cfg.ParityBanks)
	if cfg.LinePorts >= 2 {
		name += fmt.Sprintf("-lb%d", cfg.LinePorts)
	}
	if cfg.Speculative {
		name += "-spec"
	}
	// Every data bank can serve its line-buffer width (one access without
	// combining) and every parity bank one reconstructed read.
	peak := cfg.Banks*max(cfg.LinePorts, 1) + cfg.ParityBanks
	return newBanks(Params{Org: OrgCoded, Banks: cfg.Banks, PortsPerBank: 1, LinePorts: cfg.LinePorts,
		Depth: cfg.UpdateQueueDepth, ParityBanks: cfg.ParityBanks, Speculative: cfg.Speculative},
		sel, name, peak), nil
}

// acceptUpdate publishes a code update for line in group g: coalesced into
// an already-pending line for free, otherwise one fresh line per group per
// cycle while the queue has room.
func (a *Banks) acceptUpdate(g int, line uint64) bool {
	q, pc := &a.queues[g], &a.cyc[a.qbase+g]
	if q.Contains(line) {
		return true
	}
	if pc.accepted || q.Len() >= a.p.Depth {
		return false
	}
	q.Push(line)
	pc.accepted = true
	return true
}

// grantCoded: the first request per data bank takes the bank's port. A later
// same-line access combines through the composed line buffer when LinePorts
// >= 2. Any other second read of a busy bank attempts code reconstruction:
// the group's parity port must be free and its code current (no pending
// updates); the non-speculative design additionally requires — and consumes
// — every other group member's idle port, while the speculative design
// reads only the parity bank and counts a replay whenever stale code
// squashes the attempt. Stores must also publish a code update; a full
// update queue stalls them. The parity bank of group g is cycle entry
// Banks+g.
func (a *Banks) grantCoded(now uint64, ready []Request, dst []int) []int {
	for i := range ready {
		r := &ready[i]
		b := a.sel.BankOf(r.Addr)
		g := b / a.groupSize
		line := a.sel.LineOf(r.Addr)
		c := &a.cyc[b]
		if !c.busy {
			if r.Store && !a.acceptUpdate(g, line) {
				a.stats.UpdateStalls++
				a.stall(now, r, b, "code-update")
				continue
			}
			c.busy, c.open, c.count = true, line, 1
			a.accesses[b]++
			dst = append(dst, i)
			continue
		}
		if r.Store {
			a.stall(now, r, b, "bank-busy")
			continue
		}
		if a.p.LinePorts >= 2 && c.count >= 1 && line == c.open && int(c.count) < a.p.LinePorts {
			c.count++
			a.combine(now, r, b)
			dst = append(dst, i)
			continue
		}
		// Second read of a busy bank: reconstruct through group g's code.
		pc := &a.cyc[a.qbase+g]
		if pc.busy {
			a.stall(now, r, b, "parity-busy")
			continue
		}
		if a.queues[g].Len() > 0 {
			if a.p.Speculative {
				a.stats.Replays++
			} else {
				a.stats.StaleCode++
			}
			a.stall(now, r, b, "stale-code")
			continue
		}
		if !a.p.Speculative {
			lo := g * a.groupSize
			free := true
			for o := lo; o < lo+a.groupSize; o++ {
				if o != b && a.cyc[o].busy {
					free = false
					break
				}
			}
			if !free {
				a.stall(now, r, b, "group-busy")
				continue
			}
			for o := lo; o < lo+a.groupSize; o++ {
				if o != b {
					a.cyc[o].busy = true
				}
			}
		}
		pc.busy = true
		a.stats.Reconstructions++
		a.accesses[a.qbase+g]++
		dst = append(dst, i)
	}
	return dst
}
