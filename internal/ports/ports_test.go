package ports

import (
	"testing"
	"testing/quick"
)

func reqs(specs ...Request) []Request {
	for i := range specs {
		specs[i].Seq = uint64(i)
	}
	return specs
}

func grant(t *testing.T, a Arbiter, ready []Request) []int {
	t.Helper()
	return a.Grant(0, ready, nil)
}

func TestBankSelector(t *testing.T) {
	sel, err := NewBankSelector(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		bank int
	}{
		{0x00, 0}, {0x1f, 0}, {0x20, 1}, {0x40, 2}, {0x60, 3}, {0x80, 0},
		{0x10000, 0}, {0x10020, 1},
	}
	for _, c := range cases {
		if got := sel.BankOf(c.addr); got != c.bank {
			t.Errorf("BankOf(%#x) = %d, want %d", c.addr, got, c.bank)
		}
	}
	if sel.LineOf(0x3f) != 1 || sel.LineOf(0x40) != 2 {
		t.Error("LineOf wrong")
	}
	if sel.Banks() != 4 {
		t.Error("Banks wrong")
	}
}

func TestBankSelectorValidation(t *testing.T) {
	if _, err := NewBankSelector(3, 32); err == nil {
		t.Error("expected error for non-power-of-two banks")
	}
	if _, err := NewBankSelector(4, 33); err == nil {
		t.Error("expected error for non-power-of-two line size")
	}
	if _, err := NewBankSelector(0, 32); err == nil {
		t.Error("expected error for zero banks")
	}
}

func TestIdealGrantsUpToP(t *testing.T) {
	a, err := NewIdeal(4)
	if err != nil {
		t.Fatal(err)
	}
	ready := reqs(
		Request{Addr: 0x100}, Request{Addr: 0x100}, Request{Addr: 0x100, Store: true},
		Request{Addr: 0x100}, Request{Addr: 0x200},
	)
	got := grant(t, a, ready)
	if len(got) != 4 {
		t.Fatalf("grants = %v, want 4 oldest", got)
	}
	for i, g := range got {
		if g != i {
			t.Errorf("grant %d = %d, want %d (oldest-first)", i, g, i)
		}
	}
	if a.Name() != "ideal-4" || a.PeakWidth() != 4 {
		t.Error("metadata wrong")
	}
}

func TestIdealFewRequests(t *testing.T) {
	a, _ := NewIdeal(8)
	got := grant(t, a, reqs(Request{Addr: 1 << 20}))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("grants = %v", got)
	}
	if g := grant(t, a, nil); len(g) != 0 {
		t.Errorf("empty ready should grant nothing, got %v", g)
	}
}

func TestReplicatedStoreExclusive(t *testing.T) {
	a, err := NewReplicated(4)
	if err != nil {
		t.Fatal(err)
	}
	// Oldest is a store: it is granted alone.
	ready := reqs(
		Request{Addr: 0x100, Store: true},
		Request{Addr: 0x200}, Request{Addr: 0x300},
	)
	got := grant(t, a, ready)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("store cycle grants = %v, want [0]", got)
	}
	if a.StoreCycles != 1 {
		t.Error("store cycle not counted")
	}
}

func TestReplicatedLoadBurst(t *testing.T) {
	a, _ := NewReplicated(2)
	ready := reqs(
		Request{Addr: 0x100}, Request{Addr: 0x200}, Request{Addr: 0x300},
	)
	got := grant(t, a, ready)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("load cycle grants = %v, want [0 1]", got)
	}
}

func TestReplicatedLoadsStopAtStore(t *testing.T) {
	a, _ := NewReplicated(4)
	ready := reqs(
		Request{Addr: 0x100},
		Request{Addr: 0x200, Store: true},
		Request{Addr: 0x300},
	)
	got := grant(t, a, ready)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("grants = %v, want loads up to the store only", got)
	}
}

func TestBankedConflicts(t *testing.T) {
	a, err := NewBankedSelector(4, 32, BitSelect)
	if err != nil {
		t.Fatal(err)
	}
	ready := reqs(
		Request{Addr: 0x000},              // bank 0
		Request{Addr: 0x020},              // bank 1
		Request{Addr: 0x008},              // bank 0: conflict, same line
		Request{Addr: 0x080},              // bank 0: conflict, diff line
		Request{Addr: 0x040},              // bank 2
		Request{Addr: 0x060, Store: true}, // bank 3 (stores are normal accesses)
	)
	got := grant(t, a, ready)
	want := []int{0, 1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("grants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
	if a.Stats().Conflicts != 2 {
		t.Errorf("conflicts = %d, want 2", a.Stats().Conflicts)
	}
	if a.Stats().SameLineConflicts != 1 {
		t.Errorf("same-line conflicts = %d, want 1", a.Stats().SameLineConflicts)
	}
}

func TestBankedYoungerRequestBypassesBusyBank(t *testing.T) {
	a, _ := NewBankedSelector(2, 32, BitSelect)
	ready := reqs(
		Request{Addr: 0x000}, // bank 0
		Request{Addr: 0x040}, // bank 0: stalls
		Request{Addr: 0x020}, // bank 1: proceeds past the stalled one
	)
	got := grant(t, a, ready)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("grants = %v, want [0 2] (memory reordering across banks)", got)
	}
}

func TestBankedOneGrantPerBankQuick(t *testing.T) {
	a, _ := NewBankedSelector(4, 32, BitSelect)
	sel := a.Selector()
	f := func(addrs []uint32, stores []bool) bool {
		ready := make([]Request, 0, len(addrs))
		for i, raw := range addrs {
			r := Request{Seq: uint64(i), Addr: uint64(raw)}
			if i < len(stores) {
				r.Store = stores[i]
			}
			ready = append(ready, r)
		}
		got := a.Grant(0, ready, nil)
		used := map[int]bool{}
		prev := -1
		for _, g := range got {
			if g <= prev { // strictly increasing
				return false
			}
			prev = g
			b := sel.BankOf(ready[g].Addr)
			if used[b] {
				return false
			}
			used[b] = true
		}
		return len(got) <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The oldest ready request is always granted by every arbiter (age priority).
func TestOldestAlwaysGrantedQuick(t *testing.T) {
	arbs := []Arbiter{}
	if a, err := NewIdeal(2); err == nil {
		arbs = append(arbs, a)
	}
	if a, err := NewReplicated(2); err == nil {
		arbs = append(arbs, a)
	}
	if a, err := NewBankedSelector(4, 32, BitSelect); err == nil {
		arbs = append(arbs, a)
	}
	f := func(addrs []uint32, stores []bool) bool {
		if len(addrs) == 0 {
			return true
		}
		ready := make([]Request, 0, len(addrs))
		for i, raw := range addrs {
			r := Request{Seq: uint64(i), Addr: uint64(raw)}
			if i < len(stores) {
				r.Store = stores[i]
			}
			ready = append(ready, r)
		}
		for _, a := range arbs {
			got := a.Grant(0, ready, nil)
			if len(got) == 0 || got[0] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArbiterConstructorsReject(t *testing.T) {
	if _, err := NewIdeal(0); err == nil {
		t.Error("NewIdeal(0) should fail")
	}
	if _, err := NewReplicated(-1); err == nil {
		t.Error("NewReplicated(-1) should fail")
	}
	if _, err := NewBankedSelector(5, 32, BitSelect); err == nil {
		t.Error("NewBankedSelector(5,32, BitSelect) should fail")
	}
}
