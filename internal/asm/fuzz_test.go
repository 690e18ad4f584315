package asm

import (
	"strings"
	"testing"
)

// FuzzAssemble: the assembler must never panic — any input yields either a
// valid program or an *Error with a line number.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"li r1, 5\nhalt",
		".alloc buf 64 8\nld r1, 0(r2)\nhalt",
		"loop: addi r1, r1, 1\nblt r1, r2, loop\nhalt",
		"fadd f1, f2, f3",
		".word64 buf+8 42",
		".at x 0x100000 64\n.float x 1.5",
		".at a 0x100000 64\n.word64 a 7\n.at b 0x100000 8\nli r1, a\nld r2, 0(r1)\nhalt",
		"# comment only",
		"add r1, r2",
		"lw r1, (r2)",
		"lw r1, 0(f2)",
		"beq r1, r2, 7bad",
		".alloc 64",
		"li r1, 0xffffffffffffffff",
		"jal r31, fn\nfn: jr r31\nhalt",
		strings.Repeat("nop\n", 100) + "halt",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if p != nil {
				t.Error("error with non-nil program")
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Errorf("assembled program fails validation: %v", err)
		}
	})
}
