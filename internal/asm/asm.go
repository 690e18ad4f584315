// Package asm is a text assembler for the simulator's ISA, so programs can
// be written as .s files and run with cmd/lbicasm (functionally) or
// lbicsim -asm (timed) rather than constructed through the Go builder API.
//
// Syntax, one statement per line ('#' or ';' start a comment):
//
//	.alloc  table 4096 64     # reserve 4096 bytes, 64-aligned; 'table' is its address
//	.at     grid 0x100000 8192    # reserve at a fixed address
//	.word64 table+16 123      # initialize 8 bytes at table+16
//	.float  table+24 2.5      # initialize a float64
//	.byte   table 0xff        # initialize one byte
//
//	start:                    # label
//	    li   r1, table        # immediates may be numbers or data symbols
//	    lw   r2, 8(r1)        # loads:  op rd, off(base)
//	    sw   r2, -4(r1)       # stores: op rs, off(base)
//	    add  r3, r2, r2
//	    fld  f1, 0(r1)
//	    fadd f2, f1, f1
//	    beq  r3, r0, start    # branches target labels
//	    jal  r31, start
//	    jr   r31
//	    halt
//
// The entry point is the first instruction unless a ".entry" directive
// appears before an instruction.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lbic/internal/isa"
)

// Error reports an assembly failure with its line number.
type Error struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type format uint8

const (
	fRRR    format = iota // op rd, rs1, rs2
	fRRI                  // op rd, rs1, imm
	fRI                   // op rd, imm
	fLoad                 // op rd, off(base)
	fStore                // op rs, off(base)
	fBranch               // op rs1, rs2, label
	fJump                 // op label
	fJal                  // op rd, label
	fJr                   // op rs
	fRR                   // op rd, rs
	fNone                 // op
)

type opSpec struct {
	op     isa.Op
	format format
}

var mnemonics = map[string]opSpec{
	"add": {isa.Add, fRRR}, "sub": {isa.Sub, fRRR}, "and": {isa.And, fRRR},
	"or": {isa.Or, fRRR}, "xor": {isa.Xor, fRRR}, "sll": {isa.Sll, fRRR},
	"srl": {isa.Srl, fRRR}, "sra": {isa.Sra, fRRR}, "slt": {isa.Slt, fRRR},
	"sltu": {isa.Sltu, fRRR}, "mul": {isa.Mul, fRRR}, "div": {isa.Div, fRRR},
	"rem": {isa.Rem, fRRR},

	"addi": {isa.Addi, fRRI}, "andi": {isa.Andi, fRRI}, "ori": {isa.Ori, fRRI},
	"xori": {isa.Xori, fRRI}, "slli": {isa.Slli, fRRI}, "srli": {isa.Srli, fRRI},
	"srai": {isa.Srai, fRRI}, "slti": {isa.Slti, fRRI},

	"li": {isa.Li, fRI},

	"fadd": {isa.FAdd, fRRR}, "fsub": {isa.FSub, fRRR}, "fmul": {isa.FMul, fRRR},
	"fdiv": {isa.FDiv, fRRR}, "fneg": {isa.FNeg, fRR}, "fabs": {isa.FAbs, fRR},
	"cvt.i.f": {isa.CvtIF, fRR}, "cvt.f.i": {isa.CvtFI, fRR}, "fcmplt": {isa.FCmpLT, fRRR},

	"lb": {isa.Lb, fLoad}, "lbu": {isa.Lbu, fLoad}, "lw": {isa.Lw, fLoad},
	"lwu": {isa.Lwu, fLoad}, "ld": {isa.Ld, fLoad}, "fld": {isa.Fld, fLoad},
	"sb": {isa.Sb, fStore}, "sw": {isa.Sw, fStore}, "sd": {isa.Sd, fStore},
	"fsd": {isa.Fsd, fStore},

	"beq": {isa.Beq, fBranch}, "bne": {isa.Bne, fBranch},
	"blt": {isa.Blt, fBranch}, "bge": {isa.Bge, fBranch},
	"j": {isa.J, fJump}, "jal": {isa.Jal, fJal}, "jr": {isa.Jr, fJr},

	"nop": {isa.Nop, fNone}, "halt": {isa.Halt, fNone},
}

type assembler struct {
	b       *isa.Builder
	symbols map[string]uint64 // data symbols -> addresses
	line    int
}

// Assemble parses source text and returns the built program.
func Assemble(name, src string) (*isa.Program, error) {
	a := &assembler{
		b:       isa.NewBuilder(name),
		symbols: make(map[string]uint64),
	}
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.statement(raw); err != nil {
			return nil, err
		}
	}
	p, err := a.b.Build()
	if err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return p, nil
}

func (a *assembler) errf(formatStr string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(formatStr, args...)}
}

func stripComment(s string) string {
	for _, marker := range []string{"#", ";"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

func (a *assembler) statement(raw string) (err error) {
	defer func() {
		// The builder panics on malformed operands; report with line info.
		if r := recover(); r != nil {
			err = a.errf("%v", r)
		}
	}()
	s := stripComment(raw)
	if s == "" {
		return nil
	}
	// Labels may share a line with an instruction: "loop: addi r1, r1, 1".
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if !isIdent(label) {
			return a.errf("bad label %q", label)
		}
		a.b.Label(label)
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	return a.instruction(s)
}

func (a *assembler) directive(s string) error {
	fields := strings.Fields(s)
	switch fields[0] {
	case ".entry":
		a.b.Entry()
		return nil
	case ".alloc": // .alloc name size [align]
		if len(fields) < 3 || len(fields) > 4 {
			return a.errf(".alloc wants: name size [align]")
		}
		name := fields[1]
		if !isIdent(name) {
			return a.errf("bad symbol %q", name)
		}
		if _, dup := a.symbols[name]; dup {
			return a.errf("duplicate symbol %q", name)
		}
		size, err := a.number(fields[2])
		if err != nil {
			return err
		}
		align := int64(8)
		if len(fields) == 4 {
			if align, err = a.number(fields[3]); err != nil {
				return err
			}
		}
		if size < 0 || align <= 0 {
			return a.errf("bad size/alignment %d/%d", size, align)
		}
		a.symbols[name] = a.b.Alloc(int(size), uint64(align))
		return nil
	case ".at": // .at name addr size
		if len(fields) != 4 {
			return a.errf(".at wants: name addr size")
		}
		name := fields[1]
		if !isIdent(name) {
			return a.errf("bad symbol %q", name)
		}
		if _, dup := a.symbols[name]; dup {
			return a.errf("duplicate symbol %q", name)
		}
		addr, err := a.number(fields[2])
		if err != nil {
			return err
		}
		size, err := a.number(fields[3])
		if err != nil {
			return err
		}
		a.symbols[name] = a.b.AllocAt(uint64(addr), int(size))
		return nil
	case ".word64", ".word32", ".byte", ".float": // .word64 addrexpr value
		if len(fields) != 3 {
			return a.errf("%s wants: address value", fields[0])
		}
		addr, err := a.addrExpr(fields[1])
		if err != nil {
			return err
		}
		switch fields[0] {
		case ".float":
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return a.errf("bad float %q", fields[2])
			}
			a.b.SetFloat64(addr, v)
		default:
			v, err := a.number(fields[2])
			if err != nil {
				return err
			}
			switch fields[0] {
			case ".word64":
				a.b.SetWord64(addr, uint64(v))
			case ".word32":
				if v < math.MinInt32 || v > math.MaxUint32 {
					return a.errf("value %d out of 32-bit range", v)
				}
				a.b.SetWord32(addr, uint32(v))
			case ".byte":
				if v < -128 || v > 255 {
					return a.errf("value %d out of byte range", v)
				}
				a.b.SetByte(addr, byte(v))
			}
		}
		return nil
	default:
		return a.errf("unknown directive %q", fields[0])
	}
}

func (a *assembler) instruction(s string) error {
	mnemonic, rest, _ := strings.Cut(s, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	spec, ok := mnemonics[mnemonic]
	if !ok {
		return a.errf("unknown instruction %q", mnemonic)
	}
	args := splitArgs(rest)
	switch spec.format {
	case fNone:
		if len(args) != 0 {
			return a.errf("%s takes no operands", mnemonic)
		}
		a.b.Inst(spec.op, isa.RegNone, isa.RegNone, isa.RegNone, 0)
	case fRRR:
		rd, rs1, rs2, err := a.regs3(mnemonic, args)
		if err != nil {
			return err
		}
		a.b.Inst(spec.op, rd, rs1, rs2, 0)
	case fRR:
		if len(args) != 2 {
			return a.errf("%s wants: rd, rs", mnemonic)
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(args[1])
		if err != nil {
			return err
		}
		a.b.Inst(spec.op, rd, rs, isa.RegNone, 0)
	case fRRI:
		if len(args) != 3 {
			return a.errf("%s wants: rd, rs1, imm", mnemonic)
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		rs1, err := a.reg(args[1])
		if err != nil {
			return err
		}
		imm, err := a.immediate(args[2])
		if err != nil {
			return err
		}
		a.b.Inst(spec.op, rd, rs1, isa.RegNone, imm)
	case fRI:
		if len(args) != 2 {
			return a.errf("%s wants: rd, imm", mnemonic)
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		imm, err := a.immediate(args[1])
		if err != nil {
			return err
		}
		a.b.Inst(spec.op, rd, isa.RegNone, isa.RegNone, imm)
	case fLoad, fStore:
		if len(args) != 2 {
			return a.errf("%s wants: reg, off(base)", mnemonic)
		}
		r, err := a.reg(args[0])
		if err != nil {
			return err
		}
		off, base, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		if spec.format == fLoad {
			a.b.Inst(spec.op, r, base, isa.RegNone, off)
		} else {
			a.b.Inst(spec.op, isa.RegNone, base, r, off)
		}
	case fBranch:
		if len(args) != 3 {
			return a.errf("%s wants: rs1, rs2, label", mnemonic)
		}
		rs1, err := a.reg(args[0])
		if err != nil {
			return err
		}
		rs2, err := a.reg(args[1])
		if err != nil {
			return err
		}
		if !isIdent(args[2]) {
			return a.errf("bad branch target %q", args[2])
		}
		a.b.BranchTo(spec.op, rs1, rs2, args[2])
	case fJump:
		if len(args) != 1 || !isIdent(args[0]) {
			return a.errf("j wants a label")
		}
		a.b.J(args[0])
	case fJal:
		if len(args) != 2 || !isIdent(args[1]) {
			return a.errf("jal wants: rd, label")
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		a.b.Jal(rd, args[1])
	case fJr:
		if len(args) != 1 {
			return a.errf("jr wants one register")
		}
		rs, err := a.reg(args[0])
		if err != nil {
			return err
		}
		a.b.Jr(rs)
	}
	return nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (a *assembler) reg(s string) (isa.Reg, error) {
	if len(s) < 2 {
		return 0, a.errf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, a.errf("bad register %q", s)
	}
	switch s[0] {
	case 'r', 'R':
		return isa.R(n), nil
	case 'f', 'F':
		return isa.F(n), nil
	}
	return 0, a.errf("bad register %q", s)
}

func (a *assembler) regs3(mnemonic string, args []string) (rd, rs1, rs2 isa.Reg, err error) {
	if len(args) != 3 {
		return 0, 0, 0, a.errf("%s wants: rd, rs1, rs2", mnemonic)
	}
	if rd, err = a.reg(args[0]); err != nil {
		return
	}
	if rs1, err = a.reg(args[1]); err != nil {
		return
	}
	rs2, err = a.reg(args[2])
	return
}

// memOperand parses "off(base)"; the offset may be omitted.
func (a *assembler) memOperand(s string) (int64, isa.Reg, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("bad memory operand %q, want off(base)", s)
	}
	off := int64(0)
	if offStr := strings.TrimSpace(s[:open]); offStr != "" {
		v, err := a.number(offStr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	base, err := a.reg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return off, base, nil
}

// number parses a decimal or 0x-prefixed integer.
func (a *assembler) number(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow big unsigned hex values too.
		if u, uerr := strconv.ParseUint(s, 0, 64); uerr == nil {
			return int64(u), nil
		}
		return 0, a.errf("bad number %q", s)
	}
	return v, nil
}

// immediate is a number or a data symbol (optionally symbol+offset).
func (a *assembler) immediate(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	addr, err := a.addrExpr(s)
	if err != nil {
		return 0, a.errf("bad immediate %q (number or data symbol)", s)
	}
	return int64(addr), nil
}

// addrExpr resolves "symbol" or "symbol+offset".
func (a *assembler) addrExpr(s string) (uint64, error) {
	sym, offStr, hasOff := strings.Cut(s, "+")
	base, ok := a.symbols[sym]
	if !ok {
		if v, err := strconv.ParseUint(s, 0, 64); err == nil {
			return v, nil
		}
		return 0, a.errf("unknown symbol %q", sym)
	}
	if !hasOff {
		return base, nil
	}
	off, err := strconv.ParseInt(offStr, 0, 64)
	if err != nil {
		return 0, a.errf("bad offset %q", offStr)
	}
	return base + uint64(off), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
