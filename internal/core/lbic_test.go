package core

import (
	"testing"
	"testing/quick"

	"lbic/internal/ports"
)

func newLBIC(t *testing.T, m, n int) *ports.Banks {
	t.Helper()
	a, err := New(Config{Banks: m, LinePorts: n, LineSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func reqs(specs ...ports.Request) []ports.Request {
	for i := range specs {
		specs[i].Seq = uint64(i)
	}
	return specs
}

func TestLBICName(t *testing.T) {
	a := newLBIC(t, 4, 2)
	if a.Name() != "lbic-4x2" {
		t.Errorf("Name() = %q", a.Name())
	}
	if a.PeakWidth() != 8 {
		t.Errorf("PeakWidth() = %d, want 8", a.PeakWidth())
	}
	if a.Params().Depth != ports.DefaultStoreQueueDepth {
		t.Error("default store queue depth not applied")
	}
}

func TestLBICValidation(t *testing.T) {
	if _, err := New(Config{Banks: 3, LinePorts: 2, LineSize: 32}); err == nil {
		t.Error("expected error for non-power-of-two banks")
	}
	if _, err := New(Config{Banks: 4, LinePorts: 0, LineSize: 32}); err == nil {
		t.Error("expected error for zero line ports")
	}
	if _, err := New(Config{Banks: 4, LinePorts: 4, LineSize: 32, StoreQueueDepth: -1}); err == nil {
		t.Error("expected error for negative store queue depth")
	}
}

func TestLBICCombinesSameLine(t *testing.T) {
	a := newLBIC(t, 4, 4)
	ready := reqs(
		ports.Request{Addr: 0x100}, // bank 0 (0x100>>5 = 8, bank 0)
		ports.Request{Addr: 0x104}, // same line: combines
		ports.Request{Addr: 0x118}, // same line: combines
		ports.Request{Addr: 0x180}, // bank 0, different line: conflict
		ports.Request{Addr: 0x120}, // bank 1: leads
	)
	got := a.Grant(0, ready, nil)
	want := []int{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("grants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
	s := a.Stats()
	if s.Leading != 2 || s.Combined != 2 || s.LineConflicts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLBICLinePortLimit(t *testing.T) {
	a := newLBIC(t, 2, 2)
	ready := reqs(
		ports.Request{Addr: 0x100},
		ports.Request{Addr: 0x108},
		ports.Request{Addr: 0x110}, // third access to the same line: over N=2
	)
	got := a.Grant(0, ready, nil)
	if len(got) != 2 {
		t.Fatalf("grants = %v, want 2", got)
	}
	if a.Stats().PortSaturation != 1 {
		t.Errorf("port saturation = %d, want 1", a.Stats().PortSaturation)
	}
}

// Figure 4c of the paper: a store (bank0,line12), two loads (bank1,line10),
// and a store (bank0,line12). A 2x2 LBIC handles all four in one cycle; a
// 2-bank cache needs two cycles; a 2-port replicated cache needs three.
func TestFigure4cScenario(t *testing.T) {
	pattern := func() []ports.Request {
		return reqs(
			ports.Request{Addr: 12*64 + 0, Store: true}, // bank 0, line 12 (2 banks, 32B lines)
			ports.Request{Addr: 10*64 + 32 + 4},         // bank 1, line 10
			ports.Request{Addr: 10*64 + 32 + 8},         // bank 1, line 10
			ports.Request{Addr: 12*64 + 12, Store: true},
		)
	}
	cycles := func(a ports.Arbiter) int {
		ready := pattern()
		n := 0
		for now := uint64(0); len(ready) > 0; now++ {
			n++
			granted := a.Grant(now, ready, nil)
			for i := len(granted) - 1; i >= 0; i-- {
				ready = append(ready[:granted[i]], ready[granted[i]+1:]...)
			}
			if n > 10 {
				t.Fatal("scenario did not drain")
			}
		}
		return n
	}

	lbic := newLBIC(t, 2, 2)
	if got := cycles(lbic); got != 1 {
		t.Errorf("2x2 LBIC took %d cycles, want 1", got)
	}
	bank, err := ports.NewBankedSelector(2, 32, ports.BitSelect)
	if err != nil {
		t.Fatal(err)
	}
	if got := cycles(bank); got != 2 {
		t.Errorf("2-bank took %d cycles, want 2", got)
	}
	repl, err := ports.NewReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cycles(repl); got != 3 {
		t.Errorf("2-port replicated took %d cycles, want 3", got)
	}
}

func TestLBICStoreQueueCoalescesAndDrains(t *testing.T) {
	a, err := New(Config{Banks: 2, LinePorts: 2, LineSize: 32, StoreQueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two stores to bank 0, same line: both granted, one queued line.
	got := a.Grant(0, reqs(
		ports.Request{Addr: 0x100, Store: true},
		ports.Request{Addr: 0x108, Store: true},
	), nil)
	if len(got) != 2 {
		t.Fatalf("grants = %v", got)
	}
	if a.QueueLen(0) != 1 {
		t.Fatalf("store queue = %d lines, want 1 (coalesced)", a.QueueLen(0))
	}
	// A store to a second line of bank 0 takes the second slot.
	a.Grant(1, reqs(ports.Request{Addr: 0x180, Store: true}), nil)
	if a.QueueLen(0) != 2 {
		t.Fatalf("store queue = %d lines, want 2", a.QueueLen(0))
	}
	// A leading store to a third line finds the queue full: it writes the
	// array directly (banked-cache behaviour) and closes the bank's line
	// ports, so a same-line load behind it stalls this cycle.
	got = a.Grant(2, reqs(
		ports.Request{Addr: 0x200, Store: true},
		ports.Request{Addr: 0x208},
	), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("full-queue grant = %v, want the direct store only", got)
	}
	if a.Stats().DirectStores != 1 {
		t.Error("direct store not counted")
	}
	if a.QueueLen(0) != 2 {
		t.Errorf("store queue = %d, want 2 (no drain while busy)", a.QueueLen(0))
	}
	// An idle cycle drains one line; then a new line is accepted again.
	a.Grant(3, nil, nil)
	if a.QueueLen(0) != 1 {
		t.Errorf("store queue after idle = %d, want 1 (drained)", a.QueueLen(0))
	}
	got = a.Grant(4, reqs(ports.Request{Addr: 0x200, Store: true}), nil)
	if len(got) != 1 {
		t.Errorf("retry grant = %v", got)
	}
	if a.QueueLen(0) != 2 {
		t.Errorf("store queue = %d, want 2", a.QueueLen(0))
	}
}

// A store to a line already queued coalesces even when the queue is full.
func TestLBICStoreQueueCoalesceWhenFull(t *testing.T) {
	a, err := New(Config{Banks: 2, LinePorts: 2, LineSize: 32, StoreQueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Grant(0, reqs(ports.Request{Addr: 0x100, Store: true}), nil)
	a.Grant(1, reqs(ports.Request{Addr: 0x180, Store: true}), nil)
	if a.QueueLen(0) != 2 {
		t.Fatal("queue should be full")
	}
	// Same line as the first queued store: granted, no direct write.
	got := a.Grant(2, reqs(ports.Request{Addr: 0x108, Store: true}), nil)
	if len(got) != 1 {
		t.Fatalf("grants = %v", got)
	}
	if a.Stats().DirectStores != 0 {
		t.Error("coalescing store must not go direct")
	}
	if a.QueueLen(0) != 2 {
		t.Errorf("store queue = %d, want 2 (coalesced)", a.QueueLen(0))
	}
}

// A combining (non-leading) store to a new line stalls on a full queue.
func TestLBICCombiningStoreStallsOnFullQueue(t *testing.T) {
	a, err := New(Config{Banks: 2, LinePorts: 4, LineSize: 32, StoreQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single slot with a store to one line of bank 0.
	a.Grant(0, reqs(ports.Request{Addr: 0x100, Store: true}), nil)
	// A leading LOAD opens a different line; a combining store to that
	// line needs a fresh queue slot and stalls.
	got := a.Grant(1, reqs(
		ports.Request{Addr: 0x180},
		ports.Request{Addr: 0x188, Store: true},
	), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("grants = %v, want only the leading load", got)
	}
	if a.Stats().StoreQueueStalls != 1 {
		t.Error("combining store stall not counted")
	}
}

func TestLBICIdleCycleDrainsAllBanks(t *testing.T) {
	a := newLBIC(t, 2, 2)
	a.Grant(0, reqs(
		ports.Request{Addr: 0x100, Store: true}, // bank 0
		ports.Request{Addr: 0x120, Store: true}, // bank 1
	), nil)
	if a.QueueLen(0) != 1 || a.QueueLen(1) != 1 {
		t.Fatal("stores not queued")
	}
	a.Grant(1, nil, nil) // fully idle cycle
	if a.QueueLen(0) != 0 || a.QueueLen(1) != 0 {
		t.Error("idle cycle should drain both banks")
	}
	if a.Stats().StoreDrains != 2 {
		t.Errorf("drains = %d, want 2", a.Stats().StoreDrains)
	}
}

func TestLBICBusyBankDoesNotDrain(t *testing.T) {
	a := newLBIC(t, 2, 2)
	a.Grant(0, reqs(ports.Request{Addr: 0x100, Store: true}), nil)
	// Bank 0 busy with a load next cycle: no drain there.
	a.Grant(1, reqs(ports.Request{Addr: 0x180}), nil)
	if a.QueueLen(0) != 1 {
		t.Errorf("busy bank drained: queue = %d, want 1", a.QueueLen(0))
	}
}

func TestLBICLoadAndStoreSameLineSameCycle(t *testing.T) {
	// §5.2: "a load followed by a store to the same memory location" can be
	// accepted in the same cycle.
	a := newLBIC(t, 2, 2)
	got := a.Grant(0, reqs(
		ports.Request{Addr: 0x100},
		ports.Request{Addr: 0x100, Store: true},
	), nil)
	if len(got) != 2 {
		t.Errorf("grants = %v, want both", got)
	}
}

// Invariants: grants strictly increasing; at most N per (bank,line); at most
// one line per bank per cycle; every granted store fits the store queue.
func TestLBICInvariantsQuick(t *testing.T) {
	f := func(addrs []uint16, stores []bool) bool {
		a, err := New(Config{Banks: 4, LinePorts: 2, LineSize: 32})
		if err != nil {
			return false
		}
		sel := a.Selector()
		ready := make([]ports.Request, 0, len(addrs))
		for i, raw := range addrs {
			r := ports.Request{Seq: uint64(i), Addr: uint64(raw)}
			if i < len(stores) {
				r.Store = stores[i]
			}
			ready = append(ready, r)
		}
		got := a.Grant(0, ready, nil)
		perBank := map[int]int{}
		lineOf := map[int]uint64{}
		prev := -1
		for _, g := range got {
			if g <= prev {
				return false
			}
			prev = g
			b := sel.BankOf(ready[g].Addr)
			l := sel.LineOf(ready[g].Addr)
			if n, seen := perBank[b], lineOf[b]; n > 0 && seen != l {
				return false // two different lines in one bank
			}
			perBank[b]++
			lineOf[b] = l
			if perBank[b] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The LBIC always grants at least as many requests per cycle as the plain
// banked cache with the same bank count (combining only adds grants).
func TestLBICDominatesBankedQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		lb, err := New(Config{Banks: 4, LinePorts: 4, LineSize: 32})
		if err != nil {
			return false
		}
		bk, err := ports.NewBankedSelector(4, 32, ports.BitSelect)
		if err != nil {
			return false
		}
		ready := make([]ports.Request, 0, len(addrs))
		for i, raw := range addrs {
			ready = append(ready, ports.Request{Seq: uint64(i), Addr: uint64(raw)})
		}
		return len(lb.Grant(0, ready, nil)) >= len(bk.Grant(0, ready, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
