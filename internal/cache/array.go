// Package cache models the data memory hierarchy of the paper's processor
// (Table 1 / §2.1): a non-blocking 32KB direct-mapped write-back
// write-allocate L1 with 32-byte lines and single-cycle hits, a 512KB 4-way
// L2 with 64-byte lines and 4-cycle access, fully pipelined with up to 64
// outstanding misses, and a flat 10-cycle main memory behind it.
package cache

import (
	"fmt"
	"math/bits"

	"lbic/internal/recycle"
)

// Geometry describes one cache level.
type Geometry struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the block size in bytes (a power of two).
	LineSize int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
}

// maxSize caps a cache array's line count, which sizes its allocation, and
// every latency and queue depth in Params, which size the fill ring and the
// MSHR occupancy histogram. The Table 1 L2 (512 KiB of 64-byte lines) has
// 8192 lines.
const maxSize = 1 << 16

// Validate checks that the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d is not a positive power of two", g.LineSize)
	case g.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d is not positive", g.Assoc)
	case g.Size <= 0 || g.Size%g.LineSize != 0 || g.Size/g.LineSize%g.Assoc != 0:
		return fmt.Errorf("cache: size %d is not a multiple of line size %d x assoc %d",
			g.Size, g.LineSize, g.Assoc)
	case g.Size/g.LineSize > maxSize:
		return fmt.Errorf("cache: size %d holds %d lines of %d bytes, over the limit of %d lines",
			g.Size, g.Size/g.LineSize, g.LineSize, maxSize)
	}
	sets := g.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (g Geometry) Sets() int { return g.Size / (g.LineSize * g.Assoc) }

// LineBits returns log2 of the line size.
func (g Geometry) LineBits() int { return bits.TrailingZeros(uint(g.LineSize)) }

// LineAddr returns the line-aligned address containing addr.
func (g Geometry) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(g.LineSize-1)
}

// way is one cache frame.
type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

// Array is a set-associative cache array with per-set LRU replacement.
// It tracks only tags and state: the simulator never moves data.
type Array struct {
	geom     Geometry
	lineBits uint
	setMask  uint64
	tagShift uint  // log2(sets): a line number's set-index bits
	ways     []way // sets x assoc, row-major
	assoc    int
	clock    uint64

	// Accesses, Misses and Writebacks count demand behaviour for
	// characterization runs.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// wayPool recycles the tag arrays of finished runs (Hierarchy.Release).
var wayPool recycle.Slices[way]

// NewArray returns an empty array with the given geometry.
func NewArray(g Geometry) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geom:     g,
		lineBits: uint(g.LineBits()),
		setMask:  uint64(g.Sets() - 1),
		tagShift: uint(bits.TrailingZeros(uint(g.Sets()))),
		ways:     wayPool.Make(g.Sets() * g.Assoc),
		assoc:    g.Assoc,
	}, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geom }

func (a *Array) set(addr uint64) (int, uint64) {
	line := addr >> a.lineBits
	return int(line&a.setMask) * a.assoc, line >> a.tagShift
}

// Probe reports whether addr's line is present, without touching LRU state
// or counters.
func (a *Array) Probe(addr uint64) bool {
	base, tag := a.set(addr)
	for i := 0; i < a.assoc; i++ {
		if w := &a.ways[base+i]; w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, updating LRU state and counters. A write hit marks
// the line dirty. It reports whether the access hit; a miss changes no line
// state (allocation is the caller's decision, via Install).
func (a *Array) Access(addr uint64, write bool) bool {
	a.Accesses++
	a.clock++
	base, tag := a.set(addr)
	for i := 0; i < a.assoc; i++ {
		if w := &a.ways[base+i]; w.valid && w.tag == tag {
			w.used = a.clock
			if write {
				w.dirty = true
			}
			return true
		}
	}
	a.Misses++
	return false
}

// Install allocates addr's line, evicting the LRU way if the set is full.
// dirty marks the new line dirty immediately (write-allocate fill that
// performs the store). It returns the victim line address and whether a
// dirty victim was evicted; evicted is false when a free way existed.
func (a *Array) Install(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	a.clock++
	base, tag := a.set(addr)
	pick := -1
	for i := 0; i < a.assoc; i++ {
		w := &a.ways[base+i]
		if w.valid && w.tag == tag {
			// Already present (e.g. two MSHR paths raced); just update state.
			w.used = a.clock
			w.dirty = w.dirty || dirty
			return 0, false, false
		}
		if !w.valid {
			pick = i
		}
	}
	if pick < 0 {
		oldest := uint64(1<<64 - 1)
		for i := 0; i < a.assoc; i++ {
			if w := &a.ways[base+i]; w.used < oldest {
				oldest, pick = w.used, i
			}
		}
		w := &a.ways[base+pick]
		victim = a.reconstruct(base/a.assoc, w.tag)
		victimDirty = w.dirty
		evicted = true
		if victimDirty {
			a.Writebacks++
		}
	}
	a.ways[base+pick] = way{tag: tag, valid: true, dirty: dirty, used: a.clock}
	return victim, victimDirty, evicted
}

// reconstruct rebuilds a line-aligned address from set index and tag.
func (a *Array) reconstruct(setIdx int, tag uint64) uint64 {
	return ((tag << a.tagShift) | uint64(setIdx)) << a.lineBits
}

// Dirty reports whether addr's line is present and dirty.
func (a *Array) Dirty(addr uint64) bool {
	base, tag := a.set(addr)
	for i := 0; i < a.assoc; i++ {
		if w := &a.ways[base+i]; w.valid && w.tag == tag {
			return w.dirty
		}
	}
	return false
}

// Lines returns the number of valid lines currently resident.
func (a *Array) Lines() int {
	n := 0
	for i := range a.ways {
		if a.ways[i].valid {
			n++
		}
	}
	return n
}

// MissRate returns Misses/Accesses, or 0 before any access.
func (a *Array) MissRate() float64 {
	if a.Accesses == 0 {
		return 0
	}
	return float64(a.Misses) / float64(a.Accesses)
}

// release hands the ways back to wayPool; the array must not be used
// afterwards.
func (a *Array) release() {
	wayPool.Put(a.ways)
	a.ways = nil
}

// Reset clears all lines and counters.
func (a *Array) Reset() {
	for i := range a.ways {
		a.ways[i] = way{}
	}
	a.clock, a.Accesses, a.Misses, a.Writebacks = 0, 0, 0, 0
}
