package isa

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// dataByte reads one byte of p's initial data image.
func dataByte(p *Program, addr uint64) byte {
	for _, pg := range p.Pages {
		if addr-pg.Addr < PageSize {
			return pg.Bytes[addr-pg.Addr]
		}
	}
	return 0
}

func TestBuilderLabelResolution(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(R(1), 0)
	b.Label("top")
	b.Addi(R(1), R(1), 1)
	b.Blt(R(1), R(2), "top") // forward-defined label already resolved
	b.J("end")               // forward reference
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Imm != 1 {
		t.Errorf("blt target = %d, want 1", p.Code[2].Imm)
	}
	if p.Code[3].Imm != 4 {
		t.Errorf("j target = %d, want 4", p.Code[3].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.J("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Build() error = %v, want undefined label", err)
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate label")
		}
	}()
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
}

func TestBuilderRegisterClassChecks(t *testing.T) {
	cases := []func(b *Builder){
		func(b *Builder) { b.Add(F(1), R(1), R(2)) },
		func(b *Builder) { b.FAdd(R(1), F(1), F(2)) },
		func(b *Builder) { b.Lw(F(1), R(2), 0) },
		func(b *Builder) { b.Fld(R(1), R(2), 0) },
		func(b *Builder) { b.Sw(F(3), R(2), 0) },
		func(b *Builder) { b.Beq(F(1), R(2), "x") },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for wrong register class", i)
				}
			}()
			f(NewBuilder("chk"))
		}()
	}
}

func TestBuilderAlloc(t *testing.T) {
	b := NewBuilder("alloc")
	a1 := b.Alloc(100, 64)
	a2 := b.Alloc(10, 8)
	if a1%64 != 0 {
		t.Errorf("first alloc %#x not 64-aligned", a1)
	}
	if a2 < a1+100 {
		t.Errorf("second alloc %#x overlaps first ending %#x", a2, a1+100)
	}
	if a2%8 != 0 {
		t.Errorf("second alloc %#x not 8-aligned", a2)
	}
	if a1 < DataBase {
		t.Errorf("alloc %#x below DataBase", a1)
	}
}

func TestBuilderAllocBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two alignment")
		}
	}()
	NewBuilder("align").Alloc(8, 3)
}

func TestBuilderDataInit(t *testing.T) {
	b := NewBuilder("data")
	a := b.Alloc(32, 8)
	b.SetWord64(a, 0x1122334455667788)
	b.SetWord32(a+8, 0xdeadbeef)
	b.SetByte(a+12, 0x7f)
	b.SetFloat64(a+16, 3.5)
	b.SetBytes(a+24, []byte{1, 2, 3})
	b.Halt()
	p := b.MustBuild()
	if len(p.Data) != 1 {
		t.Fatalf("segments = %d, want 1", len(p.Data))
	}
	if seg := p.Data[0]; seg.Base != a || seg.Size != 32 {
		t.Errorf("segment %+v, want 32 bytes at %#x", seg, a)
	}
	if dataByte(p, a) != 0x88 || dataByte(p, a+7) != 0x11 {
		t.Error("SetWord64 wrong byte order")
	}
	if dataByte(p, a+8) != 0xef {
		t.Error("SetWord32 wrong")
	}
	if dataByte(p, a+12) != 0x7f {
		t.Error("SetByte wrong")
	}
	if dataByte(p, a+24) != 1 || dataByte(p, a+26) != 3 {
		t.Error("SetBytes wrong")
	}
}

// TestBuilderPagesOnNonZeroWrite: reserving memory creates no pages; a page
// appears on the first non-zero byte written to it, a write straddling a
// page boundary lands in both pages, and zeros over an initialized value
// clear it in place.
func TestBuilderPagesOnNonZeroWrite(t *testing.T) {
	b := NewBuilder("pages")
	a := b.Alloc(3*PageSize, PageSize)
	b.SetWord64(a, 0)
	b.SetBytes(a+PageSize, make([]byte, PageSize))
	b.Halt()
	if p := b.MustBuild(); len(p.Pages) != 0 || p.DataBytes() != 3*PageSize {
		t.Fatalf("zero writes made %d pages over %d bytes, want 0 over %d", len(p.Pages), p.DataBytes(), 3*PageSize)
	}
	b.SetWord64(a+2*PageSize-4, 0x1122334455667788)
	b.SetWord32(a+2*PageSize-4, 0)
	p := b.MustBuild()
	if len(p.Pages) != 2 || p.Pages[0].Addr != a+PageSize || p.Pages[1].Addr != a+2*PageSize {
		t.Fatalf("straddling write made pages %v, want the two at %#x and %#x", pageAddrs(p), a+PageSize, a+2*PageSize)
	}
	if dataByte(p, a+2*PageSize-1) != 0 || dataByte(p, a+2*PageSize) != 0x44 || dataByte(p, a+2*PageSize+3) != 0x11 {
		t.Error("straddling write or its zero overwrite landed wrong")
	}
}

func pageAddrs(p *Program) []uint64 {
	var out []uint64
	for _, pg := range p.Pages {
		out = append(out, pg.Addr)
	}
	return out
}

// TestBuilderAllocAtOverlapPanics: a reservation that overlaps an earlier
// one, including a second one at the same base, is rejected where it is
// made instead of replacing the first and dropping its data.
func TestBuilderAllocAtOverlapPanics(t *testing.T) {
	cases := []struct {
		name string
		base uint64
		size int
	}{
		{"same base", 0x100000, 8},
		{"inside", 0x100010, 8},
		{"straddles start", 0xffff8, 16},
		{"straddles end", 0x10003c, 16},
		{"covers", 0xff000, 0x2000},
		{"wraps", ^uint64(0) - 7, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("overlap")
			b.AllocAt(0x100000, 64)
			b.SetWord64(0x100000, 7)
			defer func() {
				if recover() == nil {
					t.Errorf("AllocAt(%#x, %d) after [0x100000,0x100040) did not panic", c.base, c.size)
				}
			}()
			b.AllocAt(c.base, c.size)
		})
	}
	// Adjacent and empty reservations at the edges are fine.
	b := NewBuilder("adjacent")
	b.AllocAt(0x100000, 64)
	b.AllocAt(0x100040, 8)
	b.AllocAt(0xffff8, 8)
	b.AllocAt(0x100000, 0)
	b.Halt()
	if p := b.MustBuild(); len(p.Data) != 4 || p.DataBytes() != 80 {
		t.Errorf("adjacent reservations: %+v", p.Data)
	}
}

func TestBuilderDataOutsideAllocationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for initialization outside allocations")
		}
	}()
	b := NewBuilder("oob")
	a := b.Alloc(8, 8)
	b.SetWord64(a+4, 1) // straddles the end of the allocation
}

func TestBuilderEntry(t *testing.T) {
	b := NewBuilder("entry")
	b.Nop()
	b.Entry()
	b.Halt()
	p := b.MustBuild()
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1", p.Entry)
	}
}

func TestProgramValidateBranchTarget(t *testing.T) {
	p := &Program{Name: "bad", Code: []Inst{{Op: J, Imm: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("expected branch-target validation error")
	}
}

func TestProgramValidateEmpty(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Error("expected error for empty program")
	}
}

func TestProgramValidateOverlappingSegments(t *testing.T) {
	p := &Program{
		Name: "overlap",
		Code: []Inst{{Op: Halt}},
		Data: []Segment{
			{Base: 0x1000, Size: 16},
			{Base: 0x1008, Size: 16},
		},
	}
	if err := p.Validate(); err == nil {
		t.Error("expected overlap validation error")
	}
}

// TestProgramValidateImage: Validate rejects extents out of order or
// wrapping the address space, and pages that are misaligned, short, out of
// order, or that initialize a byte no extent covers.
func TestProgramValidateImage(t *testing.T) {
	page := func(addr uint64, at int) Page {
		b := make([]byte, PageSize)
		b[at] = 1
		return Page{Addr: addr, Bytes: b}
	}
	exts := []Segment{{Base: 0x10010, Size: 0x20}, {Base: 0x10100, Size: 0x2000}}
	cases := []struct {
		name  string
		data  []Segment
		pages []Page
		ok    bool
	}{
		{"inside first", exts, []Page{page(0x10000, 0x10)}, true},
		{"inside second, next page", exts, []Page{page(0x10000, 0x2f), page(0x11000, 0x5)}, true},
		{"before first", exts, []Page{page(0x10000, 0xf)}, false},
		{"in the gap", exts, []Page{page(0x10000, 0x30)}, false},
		{"past the last", exts, []Page{page(0x12000, 0x100)}, false},
		{"no extent at all", exts, []Page{page(0x20000, 0)}, false},
		{"misaligned", exts, []Page{page(0x10010, 0)}, false},
		{"short", exts, []Page{{Addr: 0x10000, Bytes: make([]byte, 8)}}, false},
		{"pages out of order", exts, []Page{page(0x11000, 0), page(0x10000, 0x10)}, false},
		{"segments out of order", []Segment{exts[1], exts[0]}, nil, false},
		{"segment wraps", []Segment{{Base: ^uint64(0) - 7, Size: 16}}, nil, false},
		{"empty before equal base", []Segment{{Base: 0x10000}, {Base: 0x10000, Size: 8}}, nil, true},
		{"empty after equal base", []Segment{{Base: 0x10000, Size: 8}, {Base: 0x10000}}, nil, false},
	}
	for _, c := range cases {
		p := &Program{Name: c.name, Code: []Inst{{Op: Halt}}, Data: c.data, Pages: c.pages}
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestProgramSaveLoadRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	a := b.Alloc(16, 8)
	b.SetWord64(a, 42)
	b.Li(R(1), 7)
	b.Label("l")
	b.Addi(R(1), R(1), -1)
	b.Bne(R(1), R(0), "l")
	b.Halt()
	p := b.MustBuild()

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.Code) != len(p.Code) || q.Entry != p.Entry {
		t.Errorf("round trip mismatch: %+v vs %+v", q, p)
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Errorf("code[%d]: %v != %v", i, p.Code[i], q.Code[i])
		}
	}
	if !reflect.DeepEqual(p.Data, q.Data) || !reflect.DeepEqual(p.Pages, q.Pages) {
		t.Error("data mismatch after round trip")
	}
}

func TestProgramClone(t *testing.T) {
	b := NewBuilder("clone")
	b.Li(R(1), 1)
	b.Halt()
	p := b.MustBuild()
	q := p.Clone()
	q.Code[0].Imm = 99
	if p.Code[0].Imm == 99 {
		t.Error("Clone must deep-copy code")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob")); err == nil {
		t.Error("expected decode error")
	}
}

func TestBuilderAllocAt(t *testing.T) {
	b := NewBuilder("at")
	base := b.AllocAt(0x40000, 128)
	if base != 0x40000 {
		t.Errorf("AllocAt returned %#x", base)
	}
	b.SetWord64(0x40000+120, 5)
	b.Halt()
	p := b.MustBuild()
	found := false
	for _, s := range p.Data {
		if s.Base == 0x40000 && s.Size == 128 {
			found = true
		}
	}
	if !found {
		t.Error("AllocAt segment missing")
	}
}

func TestProgramDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	a := b.Alloc(32, 8)
	b.Li(R(1), int64(a))
	b.Label("top")
	b.Addi(R(1), R(1), 1)
	b.Bne(R(1), R(0), "top")
	b.Halt()
	p := b.MustBuild()
	var sb bytes.Buffer
	if err := p.Disassemble(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`program "dis"`, ".data", "addi r1, r1, 1", "L:", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
