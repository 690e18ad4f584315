package isa

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Builder assembles a Program. Code is emitted sequentially; labels name code
// positions and may be referenced before they are defined. Data memory is
// carved out with Alloc and AllocAt, each recorded as an extent, and
// initialized with the Set* helpers, which write into pages created on the
// first non-zero byte, so reserving memory costs nothing until it is
// initialized.
//
// Builder methods panic on malformed input (bad register class, duplicate
// label); Build reports unresolved references as errors. Panics are
// appropriate here because builders run at program-construction time with
// static arguments, like a template.Must.
type Builder struct {
	name    string
	code    []Inst
	labels  map[string]int
	fixups  []fixup // branch instructions awaiting label resolution
	extents []Segment
	pages   map[uint64]*[PageSize]byte // by page number
	brk     uint64                     // data allocation cursor
	entry   int
	haveEnt bool
}

type fixup struct {
	pc    int
	label string
}

// DataBase is the lowest address handed out by Alloc. Addresses below it are
// never allocated, so stray near-nil pointers fault in the emulator.
const DataBase = 0x1_0000

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		pages:  make(map[uint64]*[PageSize]byte),
		brk:    DataBase,
	}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// Label defines name at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q in %s", name, b.name))
	}
	b.labels[name] = b.PC()
}

// Entry marks the current PC as the program entry point. If never called,
// entry is instruction 0.
func (b *Builder) Entry() {
	b.entry = b.PC()
	b.haveEnt = true
}

func (b *Builder) emit(in Inst) { b.code = append(b.code, in) }

func needInt(r Reg, op Op) Reg {
	if !r.IsInt() {
		panic(fmt.Sprintf("isa: %s requires an integer register, got %s", op, r))
	}
	return r
}

func needFP(r Reg, op Op) Reg {
	if !r.IsFP() {
		panic(fmt.Sprintf("isa: %s requires an fp register, got %s", op, r))
	}
	return r
}

// --- integer register-register ---

func (b *Builder) rrr(op Op, rd, rs1, rs2 Reg) {
	b.emit(Inst{Op: op, Rd: needInt(rd, op), Rs1: needInt(rs1, op), Rs2: needInt(rs2, op)})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.rrr(Add, rd, rs1, rs2) }

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.rrr(Sub, rd, rs1, rs2) }

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 Reg) { b.rrr(And, rd, rs1, rs2) }

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) { b.rrr(Or, rd, rs1, rs2) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) { b.rrr(Xor, rd, rs1, rs2) }

// Sll emits rd = rs1 << (rs2 & 63).
func (b *Builder) Sll(rd, rs1, rs2 Reg) { b.rrr(Sll, rd, rs1, rs2) }

// Srl emits rd = rs1 >> (rs2 & 63), logical.
func (b *Builder) Srl(rd, rs1, rs2 Reg) { b.rrr(Srl, rd, rs1, rs2) }

// Sra emits rd = rs1 >> (rs2 & 63), arithmetic.
func (b *Builder) Sra(rd, rs1, rs2 Reg) { b.rrr(Sra, rd, rs1, rs2) }

// Slt emits rd = (rs1 < rs2) signed ? 1 : 0.
func (b *Builder) Slt(rd, rs1, rs2 Reg) { b.rrr(Slt, rd, rs1, rs2) }

// Sltu emits rd = (rs1 < rs2) unsigned ? 1 : 0.
func (b *Builder) Sltu(rd, rs1, rs2 Reg) { b.rrr(Sltu, rd, rs1, rs2) }

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.rrr(Mul, rd, rs1, rs2) }

// Div emits rd = rs1 / rs2 (signed; all-ones on division by zero).
func (b *Builder) Div(rd, rs1, rs2 Reg) { b.rrr(Div, rd, rs1, rs2) }

// Rem emits rd = rs1 % rs2 (signed; rs1 on division by zero).
func (b *Builder) Rem(rd, rs1, rs2 Reg) { b.rrr(Rem, rd, rs1, rs2) }

// --- integer register-immediate ---

func (b *Builder) rri(op Op, rd, rs1 Reg, imm int64) {
	b.emit(Inst{Op: op, Rd: needInt(rd, op), Rs1: needInt(rs1, op), Imm: imm})
}

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 Reg, imm int64) { b.rri(Addi, rd, rs1, imm) }

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 Reg, imm int64) { b.rri(Andi, rd, rs1, imm) }

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 Reg, imm int64) { b.rri(Ori, rd, rs1, imm) }

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 Reg, imm int64) { b.rri(Xori, rd, rs1, imm) }

// Slli emits rd = rs1 << imm.
func (b *Builder) Slli(rd, rs1 Reg, imm int64) { b.rri(Slli, rd, rs1, imm) }

// Srli emits rd = rs1 >> imm, logical.
func (b *Builder) Srli(rd, rs1 Reg, imm int64) { b.rri(Srli, rd, rs1, imm) }

// Srai emits rd = rs1 >> imm, arithmetic.
func (b *Builder) Srai(rd, rs1 Reg, imm int64) { b.rri(Srai, rd, rs1, imm) }

// Slti emits rd = (rs1 < imm) signed ? 1 : 0.
func (b *Builder) Slti(rd, rs1 Reg, imm int64) { b.rri(Slti, rd, rs1, imm) }

// Li emits rd = imm.
func (b *Builder) Li(rd Reg, imm int64) {
	b.emit(Inst{Op: Li, Rd: needInt(rd, Li), Imm: imm})
}

// Mov emits rd = rs (integer), as an ALU op.
func (b *Builder) Mov(rd, rs Reg) { b.Add(rd, rs, Zero) }

// --- floating point ---

func (b *Builder) fff(op Op, rd, rs1, rs2 Reg) {
	b.emit(Inst{Op: op, Rd: needFP(rd, op), Rs1: needFP(rs1, op), Rs2: needFP(rs2, op)})
}

// FAdd emits rd = rs1 + rs2 (FP).
func (b *Builder) FAdd(rd, rs1, rs2 Reg) { b.fff(FAdd, rd, rs1, rs2) }

// FSub emits rd = rs1 - rs2 (FP).
func (b *Builder) FSub(rd, rs1, rs2 Reg) { b.fff(FSub, rd, rs1, rs2) }

// FMul emits rd = rs1 * rs2 (FP).
func (b *Builder) FMul(rd, rs1, rs2 Reg) { b.fff(FMul, rd, rs1, rs2) }

// FDiv emits rd = rs1 / rs2 (FP).
func (b *Builder) FDiv(rd, rs1, rs2 Reg) { b.fff(FDiv, rd, rs1, rs2) }

// FNeg emits rd = -rs1 (FP).
func (b *Builder) FNeg(rd, rs1 Reg) {
	b.emit(Inst{Op: FNeg, Rd: needFP(rd, FNeg), Rs1: needFP(rs1, FNeg)})
}

// FAbs emits rd = |rs1| (FP).
func (b *Builder) FAbs(rd, rs1 Reg) {
	b.emit(Inst{Op: FAbs, Rd: needFP(rd, FAbs), Rs1: needFP(rs1, FAbs)})
}

// CvtIF emits rd(F) = float64(rs1), converting integer to FP.
func (b *Builder) CvtIF(rd, rs1 Reg) {
	b.emit(Inst{Op: CvtIF, Rd: needFP(rd, CvtIF), Rs1: needInt(rs1, CvtIF)})
}

// CvtFI emits rd(int) = int64(rs1 F), truncating.
func (b *Builder) CvtFI(rd, rs1 Reg) {
	b.emit(Inst{Op: CvtFI, Rd: needInt(rd, CvtFI), Rs1: needFP(rs1, CvtFI)})
}

// FCmpLT emits rd(int) = (rs1 < rs2) ? 1 : 0 over FP operands.
func (b *Builder) FCmpLT(rd, rs1, rs2 Reg) {
	b.emit(Inst{Op: FCmpLT, Rd: needInt(rd, FCmpLT), Rs1: needFP(rs1, FCmpLT), Rs2: needFP(rs2, FCmpLT)})
}

// --- memory ---

func (b *Builder) load(op Op, rd, base Reg, off int64) {
	b.emit(Inst{Op: op, Rd: rd, Rs1: needInt(base, op), Imm: off})
}

func (b *Builder) store(op Op, src, base Reg, off int64) {
	b.emit(Inst{Op: op, Rs2: src, Rs1: needInt(base, op), Imm: off})
}

// Lb emits rd = sign-extended byte at off(base).
func (b *Builder) Lb(rd, base Reg, off int64) { b.load(Lb, needInt(rd, Lb), base, off) }

// Lbu emits rd = zero-extended byte at off(base).
func (b *Builder) Lbu(rd, base Reg, off int64) { b.load(Lbu, needInt(rd, Lbu), base, off) }

// Lw emits rd = sign-extended 32-bit word at off(base).
func (b *Builder) Lw(rd, base Reg, off int64) { b.load(Lw, needInt(rd, Lw), base, off) }

// Lwu emits rd = zero-extended 32-bit word at off(base).
func (b *Builder) Lwu(rd, base Reg, off int64) { b.load(Lwu, needInt(rd, Lwu), base, off) }

// Ld emits rd = 64-bit word at off(base).
func (b *Builder) Ld(rd, base Reg, off int64) { b.load(Ld, needInt(rd, Ld), base, off) }

// Fld emits rd(F) = 64-bit FP value at off(base).
func (b *Builder) Fld(rd, base Reg, off int64) { b.load(Fld, needFP(rd, Fld), base, off) }

// Sb emits byte store of src to off(base).
func (b *Builder) Sb(src, base Reg, off int64) { b.store(Sb, needInt(src, Sb), base, off) }

// Sw emits 32-bit store of src to off(base).
func (b *Builder) Sw(src, base Reg, off int64) { b.store(Sw, needInt(src, Sw), base, off) }

// Sd emits 64-bit store of src to off(base).
func (b *Builder) Sd(src, base Reg, off int64) { b.store(Sd, needInt(src, Sd), base, off) }

// Fsd emits 64-bit FP store of src(F) to off(base).
func (b *Builder) Fsd(src, base Reg, off int64) { b.store(Fsd, needFP(src, Fsd), base, off) }

// --- control ---

func (b *Builder) branch(op Op, rs1, rs2 Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	b.emit(Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Beq emits a branch to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 Reg, label string) {
	b.branch(Beq, needInt(rs1, Beq), needInt(rs2, Beq), label)
}

// Bne emits a branch to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 Reg, label string) {
	b.branch(Bne, needInt(rs1, Bne), needInt(rs2, Bne), label)
}

// Blt emits a branch to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 Reg, label string) {
	b.branch(Blt, needInt(rs1, Blt), needInt(rs2, Blt), label)
}

// Bge emits a branch to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 Reg, label string) {
	b.branch(Bge, needInt(rs1, Bge), needInt(rs2, Bge), label)
}

// J emits an unconditional jump to label.
func (b *Builder) J(label string) { b.branch(J, RegNone, RegNone, label) }

// Jal emits a jump to label, writing the return index into rd.
func (b *Builder) Jal(rd Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	b.emit(Inst{Op: Jal, Rd: needInt(rd, Jal)})
}

// Jr emits an indirect jump to the code index held in rs1.
func (b *Builder) Jr(rs1 Reg) {
	b.emit(Inst{Op: Jr, Rs1: needInt(rs1, Jr)})
}

// Inst emits a raw instruction; operand meaning follows the opcode format.
// Label-targeting opcodes (conditional branches, J, Jal) must go through
// BranchTo, J or Jal so their targets resolve. The assembler uses this
// generic entry point; Go-authored kernels should prefer the typed methods.
// Register classes are validated against the opcode, as the typed methods do.
func (b *Builder) Inst(op Op, rd, rs1, rs2 Reg, imm int64) {
	if op.IsBranch() && op != Jr {
		panic(fmt.Sprintf("isa: %s needs a label; use BranchTo/J/Jal", op))
	}
	check := func(r Reg, fp bool) {
		if r == RegNone {
			return
		}
		if fp {
			needFP(r, op)
		} else {
			needInt(r, op)
		}
	}
	switch {
	case op == Fld:
		check(rd, true)
		check(rs1, false)
	case op == Fsd:
		check(rs2, true)
		check(rs1, false)
	case op.IsMem():
		check(rd, false)
		check(rs1, false)
		check(rs2, false)
	case op == CvtIF:
		check(rd, true)
		check(rs1, false)
	case op == CvtFI:
		check(rd, false)
		check(rs1, true)
	case op == FCmpLT:
		check(rd, false)
		check(rs1, true)
		check(rs2, true)
	case op.ClassOf() == ClassFPAdd || op.ClassOf() == ClassFPMul || op.ClassOf() == ClassFPDiv:
		check(rd, true)
		check(rs1, true)
		check(rs2, true)
	default:
		check(rd, false)
		check(rs1, false)
		check(rs2, false)
	}
	b.emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// BranchTo emits a conditional branch opcode targeting a label.
func (b *Builder) BranchTo(op Op, rs1, rs2 Reg, label string) {
	switch op {
	case Beq, Bne, Blt, Bge:
		b.branch(op, needInt(rs1, op), needInt(rs2, op), label)
	default:
		panic(fmt.Sprintf("isa: BranchTo does not handle %s", op))
	}
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Inst{Op: Nop}) }

// Halt emits a program stop.
func (b *Builder) Halt() { b.emit(Inst{Op: Halt}) }

// --- data ---

// Alloc reserves size bytes of zeroed data memory with the given alignment
// (which must be a power of two) and returns the base address.
func (b *Builder) Alloc(size int, align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("isa: alignment %d is not a power of two", align))
	}
	base := (b.brk + align - 1) &^ (align - 1)
	if base < b.brk {
		panic(fmt.Sprintf("isa: %d-byte alignment past %#x wraps the address space", align, b.brk))
	}
	return b.AllocAt(base, size)
}

// AllocAt reserves size bytes of zeroed data memory at an exact address. It
// is used by kernels that need precise bank alignment between arrays. The
// region must not overlap an earlier reservation.
func (b *Builder) AllocAt(base uint64, size int) uint64 {
	if size < 0 {
		panic("isa: negative allocation size")
	}
	s := Segment{Base: base, Size: uint64(size)}
	if s.End() < base {
		panic(fmt.Sprintf("isa: allocation of %d bytes at %#x wraps the address space", size, base))
	}
	for _, t := range b.extents {
		if s.overlaps(t) {
			panic(fmt.Sprintf("isa: allocation [%#x,%#x) overlaps the one at [%#x,%#x)", s.Base, s.End(), t.Base, t.End()))
		}
	}
	b.extents = append(b.extents, s)
	b.brk = max(b.brk, s.End())
	return base
}

// write copies v into the data image at addr, which must lie inside one
// reservation. A page is created only when a non-zero byte lands in it.
func (b *Builder) write(addr uint64, v []byte) {
	n := uint64(len(v))
	if !slices.ContainsFunc(b.extents, func(s Segment) bool {
		return addr >= s.Base && addr <= s.End() && n <= s.End()-addr
	}) {
		panic(fmt.Sprintf("isa: data initialization at %#x+%d outside any allocation", addr, len(v)))
	}
	for len(v) > 0 {
		off := addr & pageMask
		chunk := v[:min(uint64(len(v)), PageSize-off)]
		pg := b.pages[addr>>PageBits]
		if pg == nil && !zero(chunk) {
			pg = new([PageSize]byte)
			b.pages[addr>>PageBits] = pg
		}
		if pg != nil {
			copy(pg[off:], chunk)
		}
		addr += uint64(len(chunk))
		v = v[len(chunk):]
	}
}

// SetByte initializes one byte of allocated data.
func (b *Builder) SetByte(addr uint64, v byte) { b.write(addr, []byte{v}) }

// SetWord32 initializes a 32-bit little-endian value in allocated data.
func (b *Builder) SetWord32(addr uint64, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.write(addr, buf[:])
}

// SetWord64 initializes a 64-bit little-endian value in allocated data.
func (b *Builder) SetWord64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.write(addr, buf[:])
}

// SetFloat64 initializes a float64 in allocated data.
func (b *Builder) SetFloat64(addr uint64, v float64) {
	b.SetWord64(addr, math.Float64bits(v))
}

// SetBytes initializes a run of bytes in allocated data.
func (b *Builder) SetBytes(addr uint64, v []byte) { b.write(addr, v) }

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	code := make([]Inst, len(b.code))
	copy(code, b.code)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: undefined label %q", b.name, f.label)
		}
		code[f.pc].Imm = int64(target)
	}
	extents := slices.Clone(b.extents)
	slices.SortFunc(extents, func(x, y Segment) int {
		return cmp.Or(cmp.Compare(x.Base, y.Base), cmp.Compare(x.Size, y.Size))
	})
	pns := make([]uint64, 0, len(b.pages))
	for pn := range b.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	pages := make([]Page, len(pns))
	for i, pn := range pns {
		pages[i] = Page{Addr: pn << PageBits, Bytes: b.pages[pn][:]}
	}
	p := &Program{Name: b.name, Code: code, Data: extents, Pages: pages, Entry: b.entry}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error. Kernels with static structure use
// it the way templates use template.Must.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
