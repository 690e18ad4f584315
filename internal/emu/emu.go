// Package emu is the functional emulator: it executes an isa.Program against
// a vm.Memory image and yields the dynamic instruction stream consumed by the
// timing core. It plays the role SimpleScalar's functional simulator plays
// underneath sim-outorder.
package emu

import (
	"fmt"
	"math"

	"lbic/internal/isa"
	"lbic/internal/trace"
	"lbic/internal/vm"
)

// Machine executes one program. It implements trace.Stream.
type Machine struct {
	prog *isa.Program
	mem  *vm.Memory
	pc   int
	seq  uint64
	halt bool
	regs [isa.NumRegs]uint64 // FP registers hold float64 bits
}

// New returns a machine ready to execute prog from its entry point, with the
// program's initialized data pages loaded; the rest of its image reads as
// zero.
func New(prog *isa.Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: prog, mem: vm.NewMemory(), pc: prog.Entry}
	for _, pg := range prog.Pages {
		m.mem.Copy(pg.Addr, pg.Bytes)
	}
	return m, nil
}

// Mem exposes the memory image (for tests and post-run inspection).
func (m *Machine) Mem() *vm.Memory { return m.mem }

// Reg returns the current value of an integer register.
func (m *Machine) Reg(r isa.Reg) uint64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("emu: Reg called with non-integer register %s", r))
	}
	return m.regs[r]
}

// FReg returns the current value of an FP register.
func (m *Machine) FReg(r isa.Reg) float64 {
	if !r.IsFP() {
		panic(fmt.Sprintf("emu: FReg called with non-fp register %s", r))
	}
	return math.Float64frombits(m.regs[r])
}

// Halted reports whether the program has executed Halt or run off the end of
// its code.
func (m *Machine) Halted() bool { return m.halt }

// Executed returns the number of dynamic instructions executed so far.
func (m *Machine) Executed() uint64 { return m.seq }

func (m *Machine) get(r isa.Reg) uint64 {
	if r.IsZero() {
		return 0
	}
	return m.regs[r]
}

func (m *Machine) set(r isa.Reg, v uint64) {
	if !r.Valid() || r.IsZero() {
		return
	}
	m.regs[r] = v
}

func (m *Machine) getF(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }

func (m *Machine) setF(r isa.Reg, v float64) { m.regs[r] = math.Float64bits(v) }

// Next executes one instruction and fills d with its dynamic record,
// implementing trace.Stream. It returns false once the machine has halted.
// Invalid memory accesses panic with *vm.Fault.
func (m *Machine) Next(d *trace.Dyn) bool {
	if m.halt {
		return false
	}
	if m.pc < 0 || m.pc >= len(m.prog.Code) {
		m.halt = true
		return false
	}
	in := m.prog.Code[m.pc]
	src1, src2 := in.Sources()
	*d = trace.Dyn{
		Seq:   m.seq,
		PC:    m.pc,
		Op:    in.Op,
		Class: in.Op.ClassOf(),
		Src1:  src1,
		Src2:  src2,
		Dst:   in.Dest(),
	}
	m.seq++
	next := m.pc + 1

	switch in.Op {
	case isa.Nop:
	case isa.Halt:
		m.halt = true

	case isa.Add:
		m.set(in.Rd, m.get(in.Rs1)+m.get(in.Rs2))
	case isa.Sub:
		m.set(in.Rd, m.get(in.Rs1)-m.get(in.Rs2))
	case isa.And:
		m.set(in.Rd, m.get(in.Rs1)&m.get(in.Rs2))
	case isa.Or:
		m.set(in.Rd, m.get(in.Rs1)|m.get(in.Rs2))
	case isa.Xor:
		m.set(in.Rd, m.get(in.Rs1)^m.get(in.Rs2))
	case isa.Sll:
		m.set(in.Rd, m.get(in.Rs1)<<(m.get(in.Rs2)&63))
	case isa.Srl:
		m.set(in.Rd, m.get(in.Rs1)>>(m.get(in.Rs2)&63))
	case isa.Sra:
		m.set(in.Rd, uint64(int64(m.get(in.Rs1))>>(m.get(in.Rs2)&63)))
	case isa.Slt:
		m.set(in.Rd, b2u(int64(m.get(in.Rs1)) < int64(m.get(in.Rs2))))
	case isa.Sltu:
		m.set(in.Rd, b2u(m.get(in.Rs1) < m.get(in.Rs2)))

	case isa.Addi:
		m.set(in.Rd, m.get(in.Rs1)+uint64(in.Imm))
	case isa.Andi:
		m.set(in.Rd, m.get(in.Rs1)&uint64(in.Imm))
	case isa.Ori:
		m.set(in.Rd, m.get(in.Rs1)|uint64(in.Imm))
	case isa.Xori:
		m.set(in.Rd, m.get(in.Rs1)^uint64(in.Imm))
	case isa.Slli:
		m.set(in.Rd, m.get(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.Srli:
		m.set(in.Rd, m.get(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.Srai:
		m.set(in.Rd, uint64(int64(m.get(in.Rs1))>>(uint64(in.Imm)&63)))
	case isa.Slti:
		m.set(in.Rd, b2u(int64(m.get(in.Rs1)) < in.Imm))
	case isa.Li:
		m.set(in.Rd, uint64(in.Imm))

	case isa.Mul:
		m.set(in.Rd, m.get(in.Rs1)*m.get(in.Rs2))
	case isa.Div:
		den := int64(m.get(in.Rs2))
		if den == 0 {
			m.set(in.Rd, ^uint64(0))
		} else {
			m.set(in.Rd, uint64(int64(m.get(in.Rs1))/den))
		}
	case isa.Rem:
		den := int64(m.get(in.Rs2))
		if den == 0 {
			m.set(in.Rd, m.get(in.Rs1))
		} else {
			m.set(in.Rd, uint64(int64(m.get(in.Rs1))%den))
		}

	case isa.FAdd:
		m.setF(in.Rd, m.getF(in.Rs1)+m.getF(in.Rs2))
	case isa.FSub:
		m.setF(in.Rd, m.getF(in.Rs1)-m.getF(in.Rs2))
	case isa.FMul:
		m.setF(in.Rd, m.getF(in.Rs1)*m.getF(in.Rs2))
	case isa.FDiv:
		m.setF(in.Rd, m.getF(in.Rs1)/m.getF(in.Rs2))
	case isa.FNeg:
		m.setF(in.Rd, -m.getF(in.Rs1))
	case isa.FAbs:
		m.setF(in.Rd, math.Abs(m.getF(in.Rs1)))
	case isa.CvtIF:
		m.setF(in.Rd, float64(int64(m.get(in.Rs1))))
	case isa.CvtFI:
		m.set(in.Rd, uint64(int64(m.getF(in.Rs1))))
	case isa.FCmpLT:
		m.set(in.Rd, b2u(m.getF(in.Rs1) < m.getF(in.Rs2)))

	case isa.Lb, isa.Lbu, isa.Lw, isa.Lwu, isa.Ld, isa.Fld:
		addr := m.get(in.Rs1) + uint64(in.Imm)
		size := in.Op.MemSize()
		d.Addr, d.Size = addr, uint8(size)
		v := m.mem.Read(addr, size)
		d.Value = v
		switch in.Op {
		case isa.Lb:
			v = uint64(int64(int8(v)))
		case isa.Lw:
			v = uint64(int64(int32(v)))
		}
		m.set(in.Rd, v)

	case isa.Sb, isa.Sw, isa.Sd, isa.Fsd:
		addr := m.get(in.Rs1) + uint64(in.Imm)
		size := in.Op.MemSize()
		d.Addr, d.Size = addr, uint8(size)
		v := m.get(in.Rs2)
		if size < 8 {
			v &= 1<<(8*uint(size)) - 1
		}
		d.Value = v
		m.mem.Write(addr, size, v)

	case isa.Beq:
		if m.get(in.Rs1) == m.get(in.Rs2) {
			next = int(in.Imm)
		}
	case isa.Bne:
		if m.get(in.Rs1) != m.get(in.Rs2) {
			next = int(in.Imm)
		}
	case isa.Blt:
		if int64(m.get(in.Rs1)) < int64(m.get(in.Rs2)) {
			next = int(in.Imm)
		}
	case isa.Bge:
		if int64(m.get(in.Rs1)) >= int64(m.get(in.Rs2)) {
			next = int(in.Imm)
		}
	case isa.J:
		next = int(in.Imm)
	case isa.Jal:
		m.set(in.Rd, uint64(m.pc+1))
		next = int(in.Imm)
	case isa.Jr:
		next = int(m.get(in.Rs1))

	default:
		// A guest-level fault, not an API misuse: unvalidated opcodes can
		// reach here from hand-built programs, and routing through *vm.Fault
		// lets Simulate report "program faulted" instead of panicking.
		panic(&vm.Fault{Addr: uint64(m.pc), Why: fmt.Sprintf(
			"emu: program %q pc %d: unimplemented opcode %s", m.prog.Name, m.pc, in.Op)})
	}

	m.pc = next
	return true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
