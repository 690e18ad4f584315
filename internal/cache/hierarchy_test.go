package cache

import (
	"math/rand/v2"
	"testing"
)

func newHier(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// drainUntil steps the hierarchy until a completion for token arrives,
// returning its At cycle.
func drainUntil(t *testing.T, h *Hierarchy, start uint64, token int64, limit uint64) uint64 {
	t.Helper()
	for now := start; now < start+limit; now++ {
		for _, c := range h.Drain() {
			if c.Token == token {
				return c.At
			}
		}
		h.Advance(now + 1)
	}
	t.Fatalf("token %d never completed", token)
	return 0
}

func TestHitLatency(t *testing.T) {
	h := newHier(t)
	h.Advance(0)
	// Warm the line.
	h.Access(0, 0x10000, false, 1)
	at := drainUntil(t, h, 0, 1, 64)
	missDone := at
	h.Advance(missDone)
	h.Access(missDone, 0x10000, false, 2)
	at = drainUntil(t, h, missDone, 2, 8)
	if at != missDone+1 {
		t.Errorf("hit completion at %d, want %d (1-cycle hit)", at, missDone+1)
	}
}

func TestMissLatencyL2Hit(t *testing.T) {
	h := newHier(t)
	// Warm L2 with the line by missing once and letting it fill.
	h.Advance(0)
	h.Access(0, 0x20000, false, 1)
	drainUntil(t, h, 0, 1, 64)
	// Evict from L1 by touching the conflicting line (32KB apart).
	conflict := uint64(0x20000 + 32<<10)
	now := uint64(40)
	h.Advance(now)
	h.Access(now, conflict, false, 2)
	drainUntil(t, h, now, 2, 64)
	// Now 0x20000 is out of L1 but in L2: the miss should take L2Lat + 1.
	now = 80
	h.Advance(now)
	if out := h.Access(now, 0x20000, false, 3); out != Miss {
		t.Fatalf("expected miss, got %v", out)
	}
	at := drainUntil(t, h, now, 3, 64)
	want := now + uint64(DefaultParams().L2Lat) + 1
	if at != want {
		t.Errorf("L2-hit miss completed at %d, want %d", at, want)
	}
}

func TestMissLatencyL2Miss(t *testing.T) {
	h := newHier(t)
	now := uint64(5)
	h.Advance(now)
	if out := h.Access(now, 0x30000, false, 7); out != Miss {
		t.Fatalf("expected miss, got %v", out)
	}
	at := drainUntil(t, h, now, 7, 64)
	p := DefaultParams()
	want := now + uint64(p.L2Lat+p.MemLat) + 1
	if at != want {
		t.Errorf("cold miss completed at %d, want %d", at, want)
	}
	s := h.Stats()
	if s.L2Misses != 1 || s.MissesNew != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMissCombining(t *testing.T) {
	h := newHier(t)
	now := uint64(0)
	h.Advance(now)
	h.Access(now, 0x40000, false, 1)
	h.Access(now, 0x40008, false, 2) // same 32B line
	h.Access(now, 0x40010, true, 3)  // store to same line
	s := h.Stats()
	if s.MissesNew != 1 || s.MissesMerge != 2 {
		t.Fatalf("expected 1 new + 2 merged misses, got %+v", s)
	}
	at1 := drainUntil(t, h, now, 1, 64)
	// All three complete at the same fill.
	h2 := newHier(t)
	h2.Advance(0)
	h2.Access(0, 0x40000, false, 1)
	h2.Access(0, 0x40008, false, 2)
	var got []Completion
	for n := uint64(0); n < 40; n++ {
		got = append(got, h2.Drain()...)
		h2.Advance(n + 1)
	}
	if len(got) != 2 || got[0].At != got[1].At {
		t.Errorf("combined completions = %+v", got)
	}
	_ = at1
	// The store flag must make the fill dirty.
	if !h.L1().Dirty(0x40000) {
		t.Error("line with waiting store should fill dirty")
	}
}

func TestOneRequestPerCycleToL2(t *testing.T) {
	h := newHier(t)
	now := uint64(0)
	h.Advance(now)
	// Two misses to different lines in the same cycle: second must wait a cycle.
	h.Access(now, 0x50000, false, 1)
	h.Access(now, 0x51000, false, 2)
	at1 := drainUntil(t, h, now, 1, 64)
	h2 := newHier(t)
	h2.Advance(0)
	h2.Access(0, 0x50000, false, 1)
	h2.Access(0, 0x51000, false, 2)
	var at2 uint64
	for n := uint64(0); n < 40 && at2 == 0; n++ {
		for _, c := range h2.Drain() {
			if c.Token == 2 {
				at2 = c.At
			}
		}
		h2.Advance(n + 1)
	}
	if at2 != at1+1 {
		t.Errorf("second miss completed at %d, want %d (one L2 request per cycle)", at2, at1+1)
	}
}

func TestMSHRExhaustionBlocks(t *testing.T) {
	p := DefaultParams()
	p.MSHRs = 2
	h, err := NewHierarchy(p)
	if err != nil {
		t.Fatal(err)
	}
	h.Advance(0)
	h.Access(0, 0x60000, false, 1)
	h.Access(0, 0x61000, false, 2)
	if out := h.Access(0, 0x62000, false, 3); out != Blocked {
		t.Errorf("third distinct miss = %v, want Blocked", out)
	}
	if h.Stats().Blocked != 1 {
		t.Error("blocked stat not counted")
	}
}

func TestMSHRTargetOverflowBlocks(t *testing.T) {
	p := DefaultParams()
	p.MaxTargets = 2
	h, err := NewHierarchy(p)
	if err != nil {
		t.Fatal(err)
	}
	h.Advance(0)
	h.Access(0, 0x70000, false, 1)
	h.Access(0, 0x70008, false, 2)
	if out := h.Access(0, 0x70010, false, 3); out != Blocked {
		t.Errorf("target overflow = %v, want Blocked", out)
	}
}

func TestWriteAllocateStoreMiss(t *testing.T) {
	h := newHier(t)
	h.Advance(0)
	if out := h.Access(0, 0x80000, true, 1); out != Miss {
		t.Fatalf("store miss = %v", out)
	}
	drainUntil(t, h, 0, 1, 64)
	if !h.L1().Probe(0x80000) {
		t.Error("store miss must allocate the line")
	}
	if !h.L1().Dirty(0x80000) {
		t.Error("allocated store line must be dirty")
	}
}

func TestDirtyVictimWritebackToL2(t *testing.T) {
	h := newHier(t)
	// Fill 0x90000, dirty it, then evict with the 32KB-conflicting line.
	h.Advance(0)
	h.Access(0, 0x90000, true, 1)
	drainUntil(t, h, 0, 1, 64)
	now := uint64(50)
	h.Advance(now)
	h.Access(now, 0x90000+32<<10, false, 2)
	drainUntil(t, h, now, 2, 64)
	if h.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", h.Stats().Writebacks)
	}
	// The victim line should be dirty in L2 now.
	if !h.L2().Dirty(0x90000) {
		t.Error("victim must be dirty in L2")
	}
}

func TestOutstandingMissCount(t *testing.T) {
	h := newHier(t)
	h.Advance(0)
	h.Access(0, 0xa0000, false, 1)
	h.Access(0, 0xa1000, false, 2)
	if h.OutstandingMisses() != 2 {
		t.Errorf("outstanding = %d, want 2", h.OutstandingMisses())
	}
	drainUntil(t, h, 0, 1, 64)
	drainUntil(t, h, 20, 2, 64)
	if h.OutstandingMisses() != 0 {
		t.Errorf("outstanding after fills = %d", h.OutstandingMisses())
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.L1.LineSize = 3 },
		func(p *Params) { p.L2.LineSize = 16 }, // smaller than L1's 32
		func(p *Params) { p.HitLat = 0 },
		func(p *Params) { p.MSHRs = 0 },
		func(p *Params) { p.MaxPending = 0 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestMissRateStat(t *testing.T) {
	h := newHier(t)
	h.Advance(0)
	h.Access(0, 0xb0000, false, 1)
	drainUntil(t, h, 0, 1, 64)
	now := uint64(30)
	h.Advance(now)
	h.Access(now, 0xb0000, false, 2)
	h.Drain()
	s := h.Stats()
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", s.MissRate())
	}
}

func TestDrainBufferOwnership(t *testing.T) {
	h := newHier(t)
	h.Advance(0)
	h.Access(0, 0xc0000, false, 1)
	// Warm hit to generate a completion.
	first := drainUntil(t, h, 0, 1, 64)
	h.Advance(first)
	h.Access(first, 0xc0000, false, 2)
	got := h.Drain()
	if len(got) != 1 || got[0].Token != 2 {
		t.Fatalf("drain = %+v", got)
	}
	// A new completion must not clobber the previously drained slice.
	h.Advance(first + 1)
	h.Access(first+1, 0xc0000, false, 3)
	if got[0].Token != 2 {
		t.Error("previous drain result was overwritten")
	}
}

// TestMSHRIndexMatchesMap drives random lookups, inserts and removals
// through the MSHR index and a map side by side. Half the candidate lines
// hash to the table's last two cells, so probe runs wrap past its end and
// removals shift entries back across the wrap; inserts are favoured, so the
// index spends much of the run at full occupancy (MSHRs lines).
func TestMSHRIndexMatchesMap(t *testing.T) {
	for _, mshrs := range []int{1, 2, 3, 8, 64} {
		const lineBits = 5
		x := newMSHRIndex(mshrs, lineBits)
		n := len(x.cells)
		var lines []uint64
		for l := uint64(1); len(lines) < 2*mshrs; l++ {
			if x.home(l<<lineBits) >= n-2 {
				lines = append(lines, l<<lineBits)
			}
		}
		rng := rand.New(rand.NewPCG(uint64(mshrs), 7))
		for len(lines) < 4*mshrs {
			lines = append(lines, rng.Uint64()&^(1<<lineBits-1))
		}
		model := map[uint64]int32{}
		var free []int32
		for s := mshrs - 1; s >= 0; s-- {
			free = append(free, int32(s))
		}
		full, wrapped := 0, 0
		for step := 0; step < 20000; step++ {
			line := lines[rng.IntN(len(lines))]
			cell, slot := x.find(line)
			want, ok := model[line]
			if !ok {
				want = -1
			}
			if slot != want {
				t.Fatalf("mshrs %d step %d: find(%#x) = slot %d, want %d", mshrs, step, line, slot, want)
			}
			switch {
			case ok && rng.IntN(3) == 0:
				x.remove(line)
				delete(model, line)
				free = append(free, slot)
			case !ok && len(free) > 0:
				if x.cells[cell].slot != 0 {
					t.Fatalf("mshrs %d step %d: find(%#x) returned occupied cell %d", mshrs, step, line, cell)
				}
				s := free[len(free)-1]
				free = free[:len(free)-1]
				x.put(cell, line, s)
				model[line] = s
			}
			live := 0
			for i, e := range x.cells {
				if e.slot != 0 {
					live++
					if x.home(e.line) > i {
						wrapped++
					}
				}
			}
			if live != len(model) {
				t.Fatalf("mshrs %d step %d: %d cells in use, model holds %d", mshrs, step, live, len(model))
			}
			if len(model) == mshrs {
				full++
			}
		}
		if full < 1000 || mshrs > 1 && wrapped == 0 {
			t.Errorf("mshrs %d: %d steps at full occupancy, %d wrapped cell-steps; the run must reach both",
				mshrs, full, wrapped)
		}
	}
}

// TestSaturatedRunAllocatesNothing: a warm hierarchy kept saturated (every
// MSHR live, new misses turned away, the unsent request ring never empty)
// allocates nothing, however long it runs: a request queue that reclaimed
// its consumed prefix only when it drained would grow here without bound.
func TestSaturatedRunAllocatesNothing(t *testing.T) {
	h := newHier(t)
	var now uint64
	next := uint64(0x100000)
	run := func() {
		for i := 0; i < 100_000; i++ {
			h.Advance(now)
			for k := 0; k < 3; k++ {
				h.Access(now, next, k == 2, int64(next))
				h.Access(now, next+8, false, int64(next+8)) // merges
				next += 32
			}
			h.Drain()
			if now > 200 && (h.unsentLen == 0 || h.OutstandingMisses() != h.params.MSHRs) {
				t.Fatalf("cycle %d: %d unsent, %d live MSHRs; the sequence must saturate the file",
					now, h.unsentLen, h.OutstandingMisses())
			}
			now++
		}
	}
	if avg := testing.AllocsPerRun(1, run); avg != 0 {
		t.Errorf("a saturated run allocates %.1f times, want 0", avg)
	}
	if h.Stats().Blocked == 0 || h.Stats().Fills == 0 {
		t.Errorf("stats %+v: want both blocked misses and fills", h.Stats())
	}
}

// TestLargeMSHRFile: the Validate limits of 65,536 MSHRs and targets build
// a file whose targets are preallocated at 16 per MSHR, not MaxTargets, and
// a target list past 16 grows and completes every request in order.
func TestLargeMSHRFile(t *testing.T) {
	p := DefaultParams()
	p.MSHRs, p.MaxTargets = 65536, 65536
	h, err := NewHierarchy(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(h.targetBuf), p.MSHRs*targetSlotCap; got != want {
		t.Errorf("preallocated %d targets, want %d", got, want)
	}
	h.Release()

	p = DefaultParams()
	p.MaxTargets = 40
	if h, err = NewHierarchy(p); err != nil {
		t.Fatal(err)
	}
	h.Advance(0)
	for tok := int64(0); tok < 40; tok++ {
		if out := h.Access(0, 0xd0000+uint64(tok%4)*8, false, tok); out != Miss {
			t.Fatalf("target %d = %v, want Miss", tok, out)
		}
	}
	if out := h.Access(0, 0xd0000, false, 40); out != Blocked {
		t.Errorf("target 41 = %v, want Blocked", out)
	}
	var got []int64
	for now := uint64(1); now < 64; now++ {
		h.Advance(now)
		for _, c := range h.Drain() {
			got = append(got, c.Token)
		}
	}
	if len(got) != 40 {
		t.Fatalf("%d completions, want 40", len(got))
	}
	for i, tok := range got {
		if tok != int64(i) {
			t.Fatalf("completion %d is token %d, want arrival order", i, tok)
		}
	}
}
