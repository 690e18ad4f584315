package isa

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// The data image is held in pages of PageSize bytes, the emulator's page
// size, so loading an image page is one copy.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// Segment is one reserved extent of data memory: Size bytes from Base. Its
// bytes read as zero except where Program.Pages initializes them.
type Segment struct {
	Base uint64
	Size uint64
}

// End returns the first address past the extent.
func (s Segment) End() uint64 { return s.Base + s.Size }

// overlaps reports whether two extents share an address. It agrees with
// Validate's ordered check: an empty extent overlaps only an extent that
// strictly contains its base.
func (s Segment) overlaps(t Segment) bool { return s.Base < t.End() && t.Base < s.End() }

// Page is one initialized page of the data image: PageSize bytes from a
// page-aligned Addr.
type Page struct {
	Addr  uint64
	Bytes []byte
}

// Program is a complete executable: code, initial data image, and entry
// point. Programs are immutable once built.
//
// The data image is sparse. Data lists the reserved extents and Pages only
// the pages a builder wrote a non-zero byte to; every other byte reads as
// zero. A kernel that declares megabytes of arrays but initializes a few
// tables carries just those tables' pages.
type Program struct {
	Name string
	Code []Inst
	// Data holds the reserved extents in ascending address order.
	Data []Segment
	// Pages holds the initialized pages in ascending address order.
	Pages []Page
	Entry int
}

// Validate checks structural invariants: a non-empty code section, an entry
// point inside the code, branch targets inside the code, register operands in
// range, ascending non-overlapping data segments, and data pages that lie
// inside them.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("isa: program %q entry %d outside code [0,%d)", p.Name, p.Entry, len(p.Code))
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: program %q pc %d: invalid opcode %d", p.Name, pc, uint8(in.Op))
		}
		if in.Op.IsBranch() && in.Op != Jr {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("isa: program %q pc %d: %s target %d outside code [0,%d)",
					p.Name, pc, in.Op, in.Imm, len(p.Code))
			}
		}
		for _, r := range []Reg{in.Rd, in.Rs1, in.Rs2} {
			if r != RegNone && !r.Valid() {
				return fmt.Errorf("isa: program %q pc %d: invalid register %d", p.Name, pc, uint8(r))
			}
		}
	}
	for i, s := range p.Data {
		if s.End() < s.Base {
			return fmt.Errorf("isa: program %q: data segment %d (%d bytes at %#x) wraps the address space",
				p.Name, i, s.Size, s.Base)
		}
		if i > 0 {
			if prev := p.Data[i-1]; s.Base < prev.End() || s.Base == prev.Base && s.Size < prev.Size {
				return fmt.Errorf("isa: program %q: data segments %d and %d overlap or are out of order", p.Name, i-1, i)
			}
		}
	}
	return p.validatePages()
}

// validatePages checks that pages are whole, aligned, strictly ascending, and
// zero wherever no extent covers them, so the image holds no byte outside
// its reservations.
func (p *Program) validatePages() error {
	next := 0 // first extent that may reach the current page
	for i, pg := range p.Pages {
		if len(pg.Bytes) != PageSize || pg.Addr&pageMask != 0 {
			return fmt.Errorf("isa: program %q: data page %d at %#x is not an aligned %d-byte page",
				p.Name, i, pg.Addr, PageSize)
		}
		if pg.Addr+PageSize < pg.Addr {
			return fmt.Errorf("isa: program %q: data page %d at %#x is the top of the address space, which the emulator cannot load",
				p.Name, i, pg.Addr)
		}
		if i > 0 && pg.Addr <= p.Pages[i-1].Addr {
			return fmt.Errorf("isa: program %q: data pages %d and %d are out of order", p.Name, i-1, i)
		}
		for next < len(p.Data) && p.Data[next].End() <= pg.Addr {
			next++
		}
		// Advance covered over the extents that reach the page, stopping
		// at the first gap that holds a non-zero byte; the check below
		// then reports it.
		covered := 0
		for j := next; j < len(p.Data) && p.Data[j].Base < pg.Addr+PageSize; j++ {
			s := p.Data[j]
			start := int(max(s.Base, pg.Addr) - pg.Addr)
			if !zero(pg.Bytes[covered:max(start, covered)]) {
				break
			}
			covered = max(covered, int(min(s.End(), pg.Addr+PageSize)-pg.Addr))
		}
		if !zero(pg.Bytes[covered:]) {
			return fmt.Errorf("isa: program %q: data page %d at %#x initializes bytes outside every segment",
				p.Name, i, pg.Addr)
		}
	}
	return nil
}

func zero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// DataBytes returns the total number of reserved data bytes.
func (p *Program) DataBytes() int {
	n := 0
	for _, s := range p.Data {
		n += int(s.Size)
	}
	return n
}

// Save serializes the program to w.
func (p *Program) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("isa: saving program %q: %w", p.Name, err)
	}
	return nil
}

// Load deserializes a program previously written by Save and validates it.
func Load(r io.Reader) (*Program, error) {
	var p Program
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("isa: loading program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Disassemble writes a listing of the program: data segment summary and the
// code with instruction indices and branch-target markers.
func (p *Program) Disassemble(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "program %q: %d instructions, entry %d\n", p.Name, len(p.Code), p.Entry); err != nil {
		return err
	}
	for _, s := range p.Data {
		if _, err := fmt.Fprintf(w, "  .data %#x  %d bytes\n", s.Base, s.Size); err != nil {
			return err
		}
	}
	// Collect branch targets so the listing can mark them.
	targets := map[int]bool{}
	for _, in := range p.Code {
		if in.Op.IsBranch() && in.Op != Jr {
			targets[int(in.Imm)] = true
		}
	}
	for pc, in := range p.Code {
		mark := "  "
		if targets[pc] {
			mark = "L:"
		}
		if _, err := fmt.Fprintf(w, "%s %5d  %s\n", mark, pc, in); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		panic(err) // in-memory encode of a valid program cannot fail
	}
	q, err := Load(&buf)
	if err != nil {
		panic(err)
	}
	return q
}
