package tracecache

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/trace"
)

// Key identifies one recordable stream: a program (by name and content
// fingerprint, so two distinct programs sharing a name never alias) at one
// instruction budget. The budget is part of the identity because a recording
// is truncated at the budget — replaying a shorter recording under a larger
// budget would silently shorten the run.
type Key struct {
	Name        string
	Fingerprint uint64
	Insts       uint64
}

// Stats is a snapshot of the cache's counters; run reports embed it.
type Stats struct {
	// Hits counts requests served from a present or in-flight recording.
	Hits uint64 `json:"hits"`
	// Records counts recordings started (one per distinct key, thanks to
	// singleflight, unless an entry was evicted and re-recorded).
	Records uint64 `json:"records"`
	// RecordFailures counts recordings that errored or panicked.
	RecordFailures uint64 `json:"record_failures,omitempty"`
	// Evictions counts entries removed by the byte-budget LRU.
	Evictions uint64 `json:"evictions,omitempty"`
	// Oversize counts recordings larger than the whole budget: they are
	// handed to their waiters once, then dropped rather than cached.
	Oversize uint64 `json:"oversize,omitempty"`
	// Entries is the number of resident recordings.
	Entries int `json:"entries"`
	// BytesLive and BytesPeak track resident recording bytes.
	BytesLive int64 `json:"bytes_live"`
	BytesPeak int64 `json:"bytes_peak"`
	// BudgetBytes echoes the configured budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
}

type cacheEntry struct {
	ready   chan struct{} // closed when trace/err is settled
	trace   *Trace
	err     error
	size    int64
	lastUse uint64
}

// Cache is a concurrency-safe record-once/replay-many trace store. The zero
// value is not usable; construct with New. A nil *Cache is a valid "always
// record live" handle: Stream falls back to a fresh emulator.
type Cache struct {
	mu      sync.Mutex
	budget  int64 // bytes; <= 0 means unlimited
	tick    uint64
	entries map[Key]*cacheEntry
	fps     map[*isa.Program]uint64 // memoized fingerprints (see keyFor)
	stats   Stats
}

// New returns an empty cache bounded to budgetBytes of recorded trace data
// (<= 0 for unlimited).
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:  budgetBytes,
		entries: make(map[Key]*cacheEntry),
		fps:     make(map[*isa.Program]uint64),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BudgetBytes = c.budget
	if s.BudgetBytes < 0 {
		s.BudgetBytes = 0
	}
	return s
}

// GetOrRecord returns the trace for key, invoking record to produce it on
// the first request. Concurrent requests for the same key share one
// recording (singleflight); waiters block until it settles or ctx is done.
// A failed or panicking recording is not cached — the failure propagates to
// the waiters of this flight and the next request records again.
func (c *Cache) GetOrRecord(ctx context.Context, key Key, record func() (*Trace, error)) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.lastUse = c.tick
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		return e.trace, nil
	}
	e := &cacheEntry{ready: make(chan struct{}), lastUse: c.tick}
	c.entries[key] = e
	c.stats.Records++
	c.mu.Unlock()

	settled := false
	defer func() {
		if !settled { // the recording panicked; release waiters, re-panic
			c.fail(key, e, fmt.Errorf("tracecache: recording %q panicked", key.Name))
		}
	}()
	tr, err := record()
	settled = true
	if err != nil {
		c.fail(key, e, err)
		return nil, err
	}
	c.install(key, e, tr)
	return tr, nil
}

// fail removes a broken in-flight entry and releases its waiters with err.
func (c *Cache) fail(key Key, e *cacheEntry, err error) {
	c.mu.Lock()
	delete(c.entries, key)
	c.stats.RecordFailures++
	c.mu.Unlock()
	e.err = err
	close(e.ready)
}

// install publishes a finished recording, evicting least-recently-used
// settled entries while over budget. A recording larger than the entire
// budget is published to this flight's waiters but not retained.
func (c *Cache) install(key Key, e *cacheEntry, tr *Trace) {
	size := tr.SizeBytes()
	c.mu.Lock()
	e.trace = tr
	e.size = size
	if c.budget > 0 && size > c.budget {
		delete(c.entries, key)
		c.stats.Oversize++
	} else {
		c.stats.BytesLive += size
		if c.stats.BytesLive > c.stats.BytesPeak {
			c.stats.BytesPeak = c.stats.BytesLive
		}
		for c.budget > 0 && c.stats.BytesLive > c.budget {
			if !c.evictOldest(key) {
				break // everything else is in flight; tolerate the overshoot
			}
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictOldest removes the least-recently-used settled entry other than keep;
// it reports whether anything was evicted. Caller holds mu.
func (c *Cache) evictOldest(keep Key) bool {
	var (
		victim   Key
		victimE  *cacheEntry
		haveVict bool
	)
	for k, e := range c.entries {
		if k == keep || e.trace == nil {
			continue // in flight, or the entry being installed
		}
		if !haveVict || e.lastUse < victimE.lastUse {
			victim, victimE, haveVict = k, e, true
		}
	}
	if !haveVict {
		return false
	}
	delete(c.entries, victim)
	c.stats.BytesLive -= victimE.size
	c.stats.Evictions++
	return true
}

// Contains reports whether a settled recording for prog at the given budget
// is resident, without counting a hit or touching the LRU order. It answers
// "would a run right now replay?" for observability; an in-flight recording
// reports false (the run would block on it, then replay).
func (c *Cache) Contains(prog *isa.Program, insts uint64) bool {
	if c == nil || insts == 0 {
		return false
	}
	key := c.keyFor(prog, insts)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.trace != nil
}

// KeyFor builds the cache key for prog at the given budget.
func KeyFor(prog *isa.Program, insts uint64) Key {
	return Key{Name: prog.Name, Fingerprint: Fingerprint(prog), Insts: insts}
}

// keyFor is KeyFor with the fingerprint memoized per program instance:
// hashing a program's full data image costs more than replaying its trace,
// and a sweep requests the same few immutable-once-built programs thousands
// of times. The memo lives (and dies) with the cache.
func (c *Cache) keyFor(prog *isa.Program, insts uint64) Key {
	c.mu.Lock()
	fp, ok := c.fps[prog]
	c.mu.Unlock()
	if !ok {
		fp = Fingerprint(prog) // outside the lock: hashing is slow
		c.mu.Lock()
		c.fps[prog] = fp
		c.mu.Unlock()
	}
	return Key{Name: prog.Name, Fingerprint: fp, Insts: insts}
}

// Stream returns a replayable stream of prog's first insts committed
// instructions, recording via a fresh emulator on the first request. A nil
// cache returns a live emulator, so callers can thread an optional cache
// without branching. insts must be positive for a non-nil cache: an
// unbounded recording of a non-halting program would never finish.
func (c *Cache) Stream(ctx context.Context, prog *isa.Program, insts uint64) (trace.Stream, error) {
	if c == nil {
		return emu.New(prog)
	}
	tr, err := c.Recorded(ctx, prog, insts)
	if err != nil {
		return nil, err
	}
	return tr.NewReader(), nil
}

// Recorded returns the recording of prog's first insts committed
// instructions, recording via a fresh emulator on the first request. It is
// Stream without the reader wrapper, for callers that attach several readers
// to one recording (a SharedCursor stepping K lanes decodes it once).
//
// The recording elides memory values, so replay yields Value 0: the timing
// core and the characterization passes never read it, and the one consumer
// that does, the Verify oracle, always runs live because it also needs the
// emulator's final memory.
func (c *Cache) Recorded(ctx context.Context, prog *isa.Program, insts uint64) (*Trace, error) {
	if insts == 0 {
		return nil, fmt.Errorf("tracecache: zero instruction budget for %q", prog.Name)
	}
	return c.GetOrRecord(ctx, c.keyFor(prog, insts), func() (*Trace, error) {
		m, err := emu.New(prog)
		if err != nil {
			return nil, err
		}
		return RecordWith(m, RecordOptions{MaxInsts: insts, OmitValues: true}), nil
	})
}

// Fingerprint hashes a program's full content (code, data extents and
// initialized pages, entry, name), so the cache key distinguishes any two
// programs that could produce different streams. It folds in a 64-bit word
// per step, an FNV-style xor-multiply followed by a xorshift that carries
// high bits back down, since a kernel's initialized pages can run to a
// megabyte. Every step is a bijection of the state, so two programs of the
// same shape that differ in one word never collide. Keys live only in
// memory; nothing persists a fingerprint.
func Fingerprint(p *isa.Program) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(v uint64) {
		h = (h ^ v) * prime
		h ^= h >> 32
	}
	// bytes hashes the length, then the bytes 8 at a time, the last partial
	// word zero-padded.
	bytes := func(b []byte) {
		word(uint64(len(b)))
		for ; len(b) >= 8; b = b[8:] {
			word(binary.LittleEndian.Uint64(b))
		}
		if len(b) > 0 {
			var tail [8]byte
			copy(tail[:], b)
			word(binary.LittleEndian.Uint64(tail[:]))
		}
	}
	bytes([]byte(p.Name))
	word(uint64(p.Entry))
	word(uint64(len(p.Code)))
	for _, in := range p.Code {
		word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs1)<<16 | uint64(in.Rs2)<<24)
		word(uint64(in.Imm))
	}
	word(uint64(len(p.Data)))
	for _, s := range p.Data {
		word(s.Base)
		word(s.Size)
	}
	word(uint64(len(p.Pages)))
	for _, pg := range p.Pages {
		word(pg.Addr)
		bytes(pg.Bytes)
	}
	return h
}
