package ports

import "testing"

func TestBankedSQLoadsBypassStores(t *testing.T) {
	a, err := NewBankedSQ(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A store and a load to the same bank in one cycle: both granted (the
	// store is queued, the load takes the array port).
	got := a.Grant(0, reqs(
		Request{Addr: 0x100, Store: true},
		Request{Addr: 0x180}, // same bank 0, different line
	), nil)
	if len(got) != 2 {
		t.Fatalf("grants = %v, want both (store queued, load via port)", got)
	}
	if a.QueueLen(0) != 1 {
		t.Errorf("queue = %d, want 1", a.QueueLen(0))
	}
	// Plain banked grants only one of the two.
	plain, err := NewBankedSelector(2, 32, BitSelect)
	if err != nil {
		t.Fatal(err)
	}
	got = plain.Grant(0, reqs(
		Request{Addr: 0x100, Store: true},
		Request{Addr: 0x180},
	), nil)
	if len(got) != 1 {
		t.Fatalf("plain banked grants = %v, want 1", got)
	}
}

func TestBankedSQOneAcceptancePerBank(t *testing.T) {
	a, err := NewBankedSQ(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two stores to different lines of one bank: the second needs the array
	// port (direct write) since only one queue acceptance per cycle.
	got := a.Grant(0, reqs(
		Request{Addr: 0x100, Store: true},
		Request{Addr: 0x180, Store: true},
	), nil)
	if len(got) != 2 {
		t.Fatalf("grants = %v", got)
	}
	if a.Stats().DirectStores != 1 {
		t.Errorf("direct stores = %d, want 1", a.Stats().DirectStores)
	}
	// A load behind them now conflicts (port taken by the direct store).
	got = a.Grant(1, reqs(
		Request{Addr: 0x200, Store: true},
		Request{Addr: 0x280, Store: true},
		Request{Addr: 0x300},
	), nil)
	if len(got) != 2 {
		t.Fatalf("grants = %v, want store+direct-store only", got)
	}
	if a.Stats().Conflicts == 0 {
		t.Error("load should have conflicted with the direct store")
	}
}

func TestBankedSQDrainsOnIdle(t *testing.T) {
	a, err := NewBankedSQ(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Grant(0, reqs(Request{Addr: 0x100, Store: true}), nil)
	if a.QueueLen(0) != 1 {
		t.Fatal("store not queued")
	}
	a.Grant(1, nil, nil)
	if a.QueueLen(0) != 0 {
		t.Error("idle cycle should drain the queue")
	}
	if a.Stats().StoreDrains != 1 {
		t.Errorf("drains = %d", a.Stats().StoreDrains)
	}
}

func TestBankedSQCoalesces(t *testing.T) {
	a, err := NewBankedSQ(2, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Grant(0, reqs(Request{Addr: 0x100, Store: true}), nil)
	a.Grant(1, reqs(Request{Addr: 0x108, Store: true}), nil)
	// Same line: coalesced, still one queued line minus one idle drain.
	if n := a.QueueLen(0); n > 1 {
		t.Errorf("queue = %d after coalescing, want <= 1", n)
	}
}

func TestBankedSQValidation(t *testing.T) {
	if _, err := NewBankedSQ(3, 32, 4); err == nil {
		t.Error("expected bank validation error")
	}
	if _, err := NewBankedSQ(4, 32, -1); err == nil {
		t.Error("expected depth validation error")
	}
	a, err := NewBankedSQ(4, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "banksq-4" || a.PeakWidth() != 8 {
		t.Error("metadata wrong")
	}
}
