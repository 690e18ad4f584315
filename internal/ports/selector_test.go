package ports

import "testing"

func TestSelectorKindStrings(t *testing.T) {
	cases := map[SelectorKind]string{
		BitSelect:        "bit-select",
		XorFold:          "xor-fold",
		WordInterleave:   "word-interleave",
		SelectorKind(99): "selector(?)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestWordInterleaveSpreadsWithinLine(t *testing.T) {
	sel, err := NewBankSelectorKind(4, 32, WordInterleave)
	if err != nil {
		t.Fatal(err)
	}
	// The four words of one 32B line land in four different banks.
	base := uint64(0x1000)
	seen := map[int]bool{}
	for w := uint64(0); w < 4; w++ {
		seen[sel.BankOf(base+8*w)] = true
	}
	if len(seen) != 4 {
		t.Errorf("words of one line spread over %d banks, want 4", len(seen))
	}
	// Same line, so LineOf must still agree.
	if sel.LineOf(base) != sel.LineOf(base+24) {
		t.Error("LineOf must be line-granular regardless of selector")
	}
}

func TestBitSelectSameLineSameBank(t *testing.T) {
	sel, _ := NewBankSelectorKind(4, 32, BitSelect)
	if sel.BankOf(0x1000) != sel.BankOf(0x101f) {
		t.Error("bit-select must keep a line in one bank")
	}
}

func TestXorFoldDecorrelatesPowerOfTwoStrides(t *testing.T) {
	bit, _ := NewBankSelectorKind(4, 32, BitSelect)
	xor, _ := NewBankSelectorKind(4, 32, XorFold)
	// A 128-byte stride hits the same bank forever under bit selection
	// (4 banks x 32B lines) but spreads under xor folding.
	bitBanks := map[int]bool{}
	xorBanks := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		addr := 0x10000 + i*128
		bitBanks[bit.BankOf(addr)] = true
		xorBanks[xor.BankOf(addr)] = true
	}
	if len(bitBanks) != 1 {
		t.Errorf("bit-select spread %d banks for a 128B stride, want 1", len(bitBanks))
	}
	if len(xorBanks) < 3 {
		t.Errorf("xor-fold spread only %d banks for a 128B stride", len(xorBanks))
	}
	// And xor keeps whole lines together (no tag replication needed).
	if xor.BankOf(0x2000) != xor.BankOf(0x201f) {
		t.Error("xor-fold must keep a line in one bank")
	}
}

func TestBankedSelectorNames(t *testing.T) {
	a, err := NewBankedSelector(4, 32, XorFold)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "bank-4-xor-fold" {
		t.Errorf("Name() = %q", a.Name())
	}
	b, _ := NewBankedSelector(4, 32, BitSelect)
	if b.Name() != "bank-4" {
		t.Errorf("Name() = %q", b.Name())
	}
	if a.Selector().Kind() != XorFold {
		t.Error("selector kind not preserved")
	}
}

func TestWordInterleaveRemovesSameLineConflicts(t *testing.T) {
	// Four references to one line: word-interleaved banking serves all in
	// one cycle; bit-selected banking serves one.
	mk := func(kind SelectorKind) []int {
		a, err := NewBankedSelector(4, 32, kind)
		if err != nil {
			t.Fatal(err)
		}
		ready := reqs(
			Request{Addr: 0x1000}, Request{Addr: 0x1008},
			Request{Addr: 0x1010}, Request{Addr: 0x1018},
		)
		return a.Grant(0, ready, nil)
	}
	if got := mk(WordInterleave); len(got) != 4 {
		t.Errorf("word-interleave granted %d of a same-line quartet, want 4", len(got))
	}
	if got := mk(BitSelect); len(got) != 1 {
		t.Errorf("bit-select granted %d of a same-line quartet, want 1", len(got))
	}
}
