package asm

import (
	"errors"
	"strings"
	"testing"

	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/trace"
)

// run assembles and executes src, returning the machine after completion.
func run(t *testing.T, src string) *emu.Machine {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var d trace.Dyn
	for i := 0; i < 100000 && m.Next(&d); i++ {
	}
	if !m.Halted() {
		t.Fatal("program did not halt")
	}
	return m
}

func TestAssembleArithmetic(t *testing.T) {
	m := run(t, `
		li   r1, 10
		li   r2, 3
		add  r3, r1, r2
		mul  r4, r1, r2
		sub  r5, r1, r2
		addi r6, r1, -4
		halt
	`)
	if m.Reg(isa.R(3)) != 13 || m.Reg(isa.R(4)) != 30 || m.Reg(isa.R(5)) != 7 {
		t.Errorf("arith wrong: %d %d %d", m.Reg(isa.R(3)), m.Reg(isa.R(4)), m.Reg(isa.R(5)))
	}
	if m.Reg(isa.R(6)) != 6 {
		t.Errorf("addi = %d", m.Reg(isa.R(6)))
	}
}

func TestAssembleLoop(t *testing.T) {
	m := run(t, `
		# sum 1..10
		li r1, 0
		li r2, 1
		li r3, 11
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`)
	if m.Reg(isa.R(1)) != 55 {
		t.Errorf("sum = %d, want 55", m.Reg(isa.R(1)))
	}
}

func TestAssembleDataAndMemory(t *testing.T) {
	m := run(t, `
		.alloc buf 64 8
		.word64 buf 42
		.word64 buf+8 100
		.word32 buf+16 7
		.byte   buf+20 0xff

		li  r1, buf
		ld  r2, 0(r1)
		ld  r3, 8(r1)
		lw  r4, 16(r1)
		lbu r5, 20(r1)
		add r6, r2, r3
		sd  r6, 24(r1)
		halt
	`)
	if m.Reg(isa.R(6)) != 142 {
		t.Errorf("sum = %d", m.Reg(isa.R(6)))
	}
	if m.Reg(isa.R(4)) != 7 || m.Reg(isa.R(5)) != 0xff {
		t.Errorf("lw/lbu = %d/%d", m.Reg(isa.R(4)), m.Reg(isa.R(5)))
	}
	if got := m.Mem().Read(m.Reg(isa.R(1))+24, 8); got != 142 {
		t.Errorf("stored %d", got)
	}
}

func TestAssembleFloat(t *testing.T) {
	m := run(t, `
		.alloc c 16 8
		.float c 1.5
		.float c+8 2.0
		li   r1, c
		fld  f1, 0(r1)
		fld  f2, 8(r1)
		fmul f3, f1, f2
		fadd f4, f3, f1
		fsd  f4, 0(r1)
		fcmplt r2, f1, f2
		halt
	`)
	if m.FReg(isa.F(4)) != 4.5 {
		t.Errorf("f4 = %v", m.FReg(isa.F(4)))
	}
	if m.Reg(isa.R(2)) != 1 {
		t.Error("fcmplt wrong")
	}
}

func TestAssembleJalJr(t *testing.T) {
	m := run(t, `
		li  r10, 1
		jal r31, fn
		addi r10, r10, 100
		halt
	fn:
		addi r10, r10, 10
		jr  r31
	`)
	if m.Reg(isa.R(10)) != 111 {
		t.Errorf("r10 = %d, want 111", m.Reg(isa.R(10)))
	}
}

func TestAssembleAt(t *testing.T) {
	m := run(t, `
		.at region 0x200000 64
		.word64 region+8 9
		li r1, region
		ld r2, 8(r1)
		halt
	`)
	if m.Reg(isa.R(1)) != 0x200000 || m.Reg(isa.R(2)) != 9 {
		t.Errorf("at/ld wrong: %#x %d", m.Reg(isa.R(1)), m.Reg(isa.R(2)))
	}
}

// TestAssembleAtOverlapNamesLine: a second .at over an already-reserved
// range is an error on its own line, not a silent replacement that drops
// the first reservation's data.
func TestAssembleAtOverlapNamesLine(t *testing.T) {
	src := ".at a 0x100000 64\n.word64 a 7\n.at b 0x100000 8\nhalt"
	_, err := Assemble("overlap", src)
	var e *Error
	if !errors.As(err, &e) || e.Line != 3 || !strings.Contains(e.Msg, "overlaps") {
		t.Fatalf("Assemble = %v, want an overlap error on line 3", err)
	}
}

func TestAssembleEntry(t *testing.T) {
	m := run(t, `
		li r1, 1
		.entry
		li r2, 2
		halt
	`)
	if m.Reg(isa.R(1)) != 0 {
		t.Error("instruction before .entry should not run")
	}
	if m.Reg(isa.R(2)) != 2 {
		t.Error("entry path did not run")
	}
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	m := run(t, `
		li r1, 3
	loop: addi r1, r1, -1
		bne r1, r0, loop
		halt
	`)
	if m.Reg(isa.R(1)) != 0 {
		t.Errorf("r1 = %d", m.Reg(isa.R(1)))
	}
}

func TestAssembleComments(t *testing.T) {
	run(t, `
		li r1, 5   # trailing comment
		; whole-line comment
		halt       ; done
	`)
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frob r1, r2, r3\nhalt", "unknown instruction"},
		{"add r1, r2\nhalt", "wants: rd, rs1, rs2"},
		{"li r40, 1\nhalt", "bad register"},
		{"li x1, 1\nhalt", "bad register"},
		{"ld r1, nonsense\nhalt", "memory operand"},
		{"beq r1, r2, 7eleven\nhalt", "bad branch target"},
		{".alloc 9bad 64\nhalt", "bad symbol"},
		{".alloc a 64\n.alloc a 64\nhalt", "duplicate symbol"},
		{".word64 nosuch 1\nhalt", "unknown symbol"},
		{".blah 1 2\nhalt", "unknown directive"},
		{"j nowhere\nhalt", "undefined label"},
		{"addi r1, r1, zzz\nhalt", "bad immediate"},
		{"lw f1, 0(r1)\nhalt", "integer register"},
		{".byte", "wants: address value"},
	}
	for _, c := range cases {
		_, err := Assemble("bad", c.src)
		if err == nil {
			t.Errorf("src %q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Assemble("bad", "li r1, 1\nli r2, 2\nbogus r1\nhalt")
	var ae *Error
	if !errorsAs(err, &ae) {
		t.Fatalf("error type %T", err)
	}
	if ae.Line != 3 {
		t.Errorf("error line = %d, want 3", ae.Line)
	}
}

func errorsAs(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestAssembleHexNumbers(t *testing.T) {
	m := run(t, `
		li r1, 0xff
		andi r2, r1, 0x0f
		halt
	`)
	if m.Reg(isa.R(2)) != 0xf {
		t.Errorf("r2 = %#x", m.Reg(isa.R(2)))
	}
}

func TestAssembleNegativeOffsets(t *testing.T) {
	m := run(t, `
		.alloc buf 32 8
		.word64 buf 5
		li r1, buf+8
		ld r2, -8(r1)
		halt
	`)
	if m.Reg(isa.R(2)) != 5 {
		t.Errorf("r2 = %d", m.Reg(isa.R(2)))
	}
}
