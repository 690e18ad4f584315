package tracecache

import (
	"lbic/internal/recycle"
	"lbic/internal/trace"
)

// SharedCursor decodes an instruction stream exactly once and fans the
// decoded records out to K lane readers that each consume it at their own
// pace. It is the stream side of vectorized multi-config stepping: a sweep
// that steps the same benchmark under K port organizations attaches K lane
// readers to one cursor, so each dynamic instruction is decoded (or, for a
// live source, emulated / generated) once instead of K times.
//
// The cursor holds a bounded power-of-two ring of decoded records. A record
// is produced on demand — only when the front-most reader asks for an
// instruction nobody has decoded yet — so the source is never pulled past
// what the lanes actually consume. That property is load-bearing: a shared
// live emulator must stop at exactly the instruction budget for the oracle's
// final-memory check to hold, and it is also what makes lane runs consume
// the source exactly like a single core reading it directly does.
//
// A reader that finishes (or fails) calls Close to stop holding the window
// back; if a slow reader pins the window while a fast one needs room, the
// ring grows rather than deadlocking. The cursor is not safe for concurrent
// use — the lane scheduler (cpu.RunLanes) steps lanes from one goroutine.
type SharedCursor struct {
	src  trace.Stream
	buf  []trace.Dyn
	mask uint64
	// filled is the absolute count of records decoded from src so far; the
	// record with absolute index i (i < filled, i within the window) lives
	// at buf[i&mask].
	filled uint64
	// limit is how far filled may advance before reader positions must be
	// re-examined; it is min(live reader pos) + len(buf), recomputed only
	// when reached, so the common fill path is one bounds check.
	limit   uint64
	eof     bool
	batch   int
	readers []*LaneReader
}

// ringPool recycles the decode rings of finished batches (see recycle).
var ringPool recycle.Slices[trace.Dyn]

// NewSharedCursor wraps src in a cursor whose ring holds at least window
// decoded records (rounded up to a power of two, minimum 16). Attach every
// reader with NewLaneReader before the first Next call.
func NewSharedCursor(src trace.Stream, window int) *SharedCursor {
	n := 16
	for n < window {
		n <<= 1
	}
	return &SharedCursor{src: src, buf: ringPool.Make(n), mask: uint64(n - 1)}
}

// Release hands the ring back for a later NewSharedCursor. Call it once
// every lane has finished; neither the cursor nor its readers may be used
// afterwards.
func (c *SharedCursor) Release() {
	ringPool.Put(c.buf)
	c.buf = nil
}

// NewLaneReader attaches and returns a new reader positioned at the start of
// the stream. It must be called before any reader consumes a record: late
// readers would need records the window may already have dropped.
func (c *SharedCursor) NewLaneReader() *LaneReader {
	if c.filled > 0 {
		panic("tracecache: NewLaneReader after reading started")
	}
	r := &LaneReader{c: c}
	c.readers = append(c.readers, r)
	return r
}

// Filled reports how many records have been decoded from the source so far.
func (c *SharedCursor) Filled() uint64 { return c.filled }

// SetBatchFill lets fill pull up to n records from the source per frontier
// miss instead of exactly one. Only valid for sources that may be read past
// what the lanes consume — replayed recordings and synthetic generators,
// where read-ahead is free. It must stay off for a shared live emulator:
// overdrawing one would advance architectural state past the instruction
// budget and break the oracle's final-memory check.
func (c *SharedCursor) SetBatchFill(n int) { c.batch = n }

// fill decodes at least one more record into the ring, reporting false at
// source end with nothing decoded.
func (c *SharedCursor) fill() bool {
	if c.eof {
		return false
	}
	if c.filled == c.limit {
		c.advanceLimit()
	}
	if !c.src.Next(&c.buf[c.filled&c.mask]) {
		c.eof = true
		return false
	}
	c.filled++
	// Batch mode amortizes the per-record call overhead of the frontier
	// lane: run the decode loop to the window edge (or the batch cap) now,
	// so the next few thousand Next calls stay on the buffered fast path.
	for n := c.batch - 1; n > 0 && c.filled < c.limit; n-- {
		if !c.src.Next(&c.buf[c.filled&c.mask]) {
			c.eof = true
			break
		}
		c.filled++
	}
	return true
}

// advanceLimit recomputes how far decoding may run ahead of the slowest live
// reader, growing the ring when a pinned window leaves no room.
func (c *SharedCursor) advanceLimit() {
	for {
		min := c.filled
		for _, r := range c.readers {
			if !r.closed && r.pos < min {
				min = r.pos
			}
		}
		if lim := min + uint64(len(c.buf)); lim > c.filled {
			c.limit = lim
			return
		}
		c.grow(min)
	}
}

// grow doubles the ring, re-seating the live window [min, filled) at the new
// mask. Absolute indexing makes this a straight copy: record i moves from
// old[i&oldMask] to new[i&newMask].
func (c *SharedCursor) grow(min uint64) {
	old, oldMask := c.buf, c.mask
	c.buf = ringPool.Make(2 * len(old))
	c.mask = uint64(len(c.buf) - 1)
	for i := min; i < c.filled; i++ {
		c.buf[i&c.mask] = old[i&oldMask]
	}
	ringPool.Put(old)
}

// LaneReader is one lane's view of a SharedCursor. It implements
// trace.Stream; Pos exposes the lane's absolute stream position so a lane
// scheduler can keep the readers within one window of each other.
type LaneReader struct {
	c      *SharedCursor
	pos    uint64
	closed bool
}

// Next delivers the lane's next record, decoding through the shared cursor
// when this reader is at the decode frontier. It returns false only at the
// true end of the underlying source, exactly like a private reader would.
func (r *LaneReader) Next(d *trace.Dyn) bool {
	c := r.c
	if r.pos == c.filled && !c.fill() {
		return false
	}
	*d = c.buf[r.pos&c.mask]
	r.pos++
	return true
}

// Pos returns the number of records this lane has consumed.
func (r *LaneReader) Pos() uint64 { return r.pos }

// Close releases the reader's hold on the window; the cursor no longer
// waits for it. Reading after Close is invalid.
func (r *LaneReader) Close() { r.closed = true }
