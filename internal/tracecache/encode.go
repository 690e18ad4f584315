// Package tracecache is a record-once/replay-many layer for dynamic
// instruction streams. Every cell of a sweep re-executes the same functional
// emulation — ten workloads, dozens of port organizations — so the first run
// of a (program, budget) pair records the committed stream into a compact
// in-memory encoding and every later run replays it through a zero-copy
// trace.Stream, with singleflight across concurrent sweep workers and a
// byte-budget LRU bounding residency.
//
// The encoding exploits that almost every Dyn field is static: PC, opcode,
// class, register operands and access size are properties of the static
// instruction, repeated millions of times by hot loops. Each distinct static
// tuple is interned once into a struct-of-arrays table; the per-instruction
// stream is then just a varint intern ID, plus (for memory operations) a
// zigzag-varint delta from the previous memory address and, unless elided,
// the access's value bytes. Typical cost is 1-2 bytes per ALU instruction and
// 4-12 per memory instruction, versus the ~64 bytes a naive []trace.Dyn would
// spend; the cache's recordings elide values, which halves the ten kernels'
// average from 3.9 to 1.7 bytes per instruction.
package tracecache

import (
	"lbic/internal/isa"
	"lbic/internal/trace"
)

// staticInst is one interned static-instruction tuple. Dyn fields that do
// not vary across dynamic instances of the same static instruction live
// here, once.
type staticInst struct {
	pc    int32
	op    isa.Op
	class isa.Class
	src1  isa.Reg
	src2  isa.Reg
	dst   isa.Reg
	size  uint8
	mem   bool
}

const staticInstBytes = 16 // accounting size of one interned tuple

// Trace is an immutable recorded dynamic instruction stream. It is safe for
// concurrent replay: readers carry all mutable state.
type Trace struct {
	insts    []staticInst // interned static tuples, first-seen order
	data     []byte       // per-instruction encoded stream
	n        uint64       // dynamic instruction count
	noValues bool         // memory value bytes elided; replay yields Value 0
}

// Len returns the number of recorded dynamic instructions.
func (t *Trace) Len() uint64 { return t.n }

// SizeBytes returns the trace's accounted memory footprint, the unit of the
// cache's byte budget.
func (t *Trace) SizeBytes() int64 {
	return int64(len(t.data)) + int64(len(t.insts))*staticInstBytes
}

// RecordOptions tunes Record. The zero value matches the historical
// behavior: unbounded recording with memory values preserved.
type RecordOptions struct {
	// MaxInsts bounds the recording; 0 records until the stream ends.
	MaxInsts uint64
	// OmitValues drops memory value bytes from the encoding. Replay then
	// yields Value 0 for every access — fine for timing-only streams (the
	// cache's recordings, the synthetic generators), unacceptable for
	// -verify oracle runs.
	OmitValues bool
}

// Record drains up to max instructions from s (all of them when max is 0)
// into a new Trace. The timing core never pulls more than its MaxInsts
// budget from a stream, so recording min(len, max) instructions replays
// identically to the live stream under the same budget.
func Record(s trace.Stream, max uint64) *Trace {
	return RecordWith(s, RecordOptions{MaxInsts: max})
}

// RecordWith is Record with explicit options.
func RecordWith(s trace.Stream, opt RecordOptions) *Trace {
	max := opt.MaxInsts
	t := &Trace{noValues: opt.OmitValues}
	ids := make(map[staticInst]uint32)
	var (
		d        trace.Dyn
		prevAddr uint64
	)
	for max == 0 || t.n < max {
		if !s.Next(&d) {
			break
		}
		si := staticInst{
			pc:    int32(d.PC),
			op:    d.Op,
			class: d.Class,
			src1:  d.Src1,
			src2:  d.Src2,
			dst:   d.Dst,
			size:  d.Size,
			mem:   d.IsMem(),
		}
		id, ok := ids[si]
		if !ok {
			id = uint32(len(t.insts))
			ids[si] = id
			t.insts = append(t.insts, si)
		}
		t.data = appendUvarint(t.data, uint64(id))
		if si.mem {
			delta := int64(d.Addr - prevAddr)
			t.data = appendUvarint(t.data, uint64(delta<<1)^uint64(delta>>63))
			prevAddr = d.Addr
			if !t.noValues {
				for i := uint8(0); i < si.size; i++ {
					t.data = append(t.data, byte(d.Value>>(8*i)))
				}
			}
		}
		t.n++
	}
	return t
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Reader replays a Trace as a trace.Stream. Each reader is an independent
// cursor; create one per concurrent consumer. Next never allocates.
type Reader struct {
	t        *Trace
	pos      int
	seq      uint64
	prevAddr uint64
}

// NewReader returns a fresh cursor over the trace.
func (t *Trace) NewReader() *Reader { return &Reader{t: t} }

// Next implements trace.Stream. Sequence numbers are consecutive from 0,
// exactly as the emulator assigns them. The cursor is kept in locals with a
// single-byte fast path for both varints: this is the sweep's innermost
// decode loop, and spilling r.pos through the pointer on every byte costs
// more than the decode itself. The record is filled field by field: a
// composite literal is built on the stack and copied out in wide moves that
// stall on the narrow stores just made to it.
func (r *Reader) Next(d *trace.Dyn) bool {
	t := r.t
	b := t.data
	pos := r.pos
	if pos >= len(b) {
		return false
	}
	u := uint64(b[pos])
	pos++
	if u >= 0x80 {
		u, pos = uvarintSlow(b, pos, u)
	}
	si := &t.insts[u]
	d.Seq = r.seq
	d.PC = int(si.pc)
	d.Op = si.op
	d.Class = si.class
	d.Src1 = si.src1
	d.Src2 = si.src2
	d.Dst = si.dst
	r.seq++
	var addr, v uint64
	var size uint8
	if si.mem {
		z := uint64(b[pos])
		pos++
		if z >= 0x80 {
			z, pos = uvarintSlow(b, pos, z)
		}
		r.prevAddr += uint64(int64(z>>1) ^ -int64(z&1))
		addr, size = r.prevAddr, si.size
		if !t.noValues {
			for i := uint8(0); i < size; i++ {
				v |= uint64(b[pos]) << (8 * i)
				pos++
			}
		}
	}
	d.Addr, d.Size, d.Value = addr, size, v
	r.pos = pos
	return true
}

// uvarintSlow finishes a varint whose first byte (already consumed, passed as
// v with its continuation bit set) did not terminate it.
func uvarintSlow(b []byte, pos int, v uint64) (uint64, int) {
	v &= 0x7f
	for shift := uint(7); ; shift += 7 {
		c := b[pos]
		pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, pos
		}
	}
}

var _ trace.Stream = (*Reader)(nil)
