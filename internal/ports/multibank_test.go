package ports

import "testing"

func TestMultiPortedBanksGrants(t *testing.T) {
	a, err := NewMultiPortedBanks(2, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "mpb-2x2" || a.PeakWidth() != 4 {
		t.Error("metadata wrong")
	}
	// Three requests to bank 0 (two lines) and one to bank 1: the bank with
	// two ports serves two of the three regardless of lines.
	got := a.Grant(0, reqs(
		Request{Addr: 0x100},              // bank 0
		Request{Addr: 0x180},              // bank 0, different line: still served
		Request{Addr: 0x200, Store: true}, // bank 0: over the 2 ports
		Request{Addr: 0x120},              // bank 1
	), nil)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("grants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
	if a.Stats().Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", a.Stats().Conflicts)
	}
}

func TestMultiPortedBanksDegenerateCases(t *testing.T) {
	// M=1, P=4 behaves exactly like ideal-4.
	mpb, err := NewMultiPortedBanks(1, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdeal(4)
	if err != nil {
		t.Fatal(err)
	}
	ready := reqs(
		Request{Addr: 0x100}, Request{Addr: 0x180},
		Request{Addr: 0x200, Store: true}, Request{Addr: 0x220}, Request{Addr: 0x240},
	)
	g1 := mpb.Grant(0, ready, nil)
	g2 := id.Grant(0, ready, nil)
	if len(g1) != len(g2) {
		t.Fatalf("mpb-1x4 %v != ideal-4 %v", g1, g2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("mpb-1x4 %v != ideal-4 %v", g1, g2)
		}
	}

	// M=4, P=1 behaves exactly like bank-4.
	mpb2, err := NewMultiPortedBanks(4, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := NewBankedSelector(4, 32, BitSelect)
	if err != nil {
		t.Fatal(err)
	}
	g3 := mpb2.Grant(0, ready, nil)
	g4 := bank.Grant(0, ready, nil)
	if len(g3) != len(g4) {
		t.Fatalf("mpb-4x1 %v != bank-4 %v", g3, g4)
	}
	for i := range g3 {
		if g3[i] != g4[i] {
			t.Fatalf("mpb-4x1 %v != bank-4 %v", g3, g4)
		}
	}
}

func TestMultiPortedBanksValidation(t *testing.T) {
	if _, err := NewMultiPortedBanks(3, 2, 32); err == nil {
		t.Error("expected bank count validation error")
	}
	if _, err := NewMultiPortedBanks(4, 0, 32); err == nil {
		t.Error("expected ports validation error")
	}
}
