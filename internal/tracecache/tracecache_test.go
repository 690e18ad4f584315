package tracecache

import (
	"context"
	"errors"
	"sync"
	"testing"

	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/trace"
	"lbic/internal/workload"
)

// TestRoundTrip replays every workload's recording against a fresh emulator
// and requires Dyn-for-Dyn equality — the property the whole layer rests on.
// The cache's own recording of the same stream elides memory values: it
// must be smaller and replay the same records with Value 0.
func TestRoundTrip(t *testing.T) {
	for _, in := range workload.All() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			prog := in.Build()
			const n = 20_000
			m, err := emu.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			tr := Record(m, n)
			if tr.Len() != n {
				t.Fatalf("recorded %d instructions, want %d", tr.Len(), n)
			}
			if got, naive := tr.SizeBytes(), int64(n*64); got >= naive/4 {
				t.Errorf("trace is %d bytes; want well under a naive encoding's %d", got, naive)
			}
			cached, err := New(0).Recorded(context.Background(), prog, n)
			if err != nil {
				t.Fatal(err)
			}
			if !cached.ValuesElided() || tr.ValuesElided() {
				t.Fatalf("values elided: cache %v, Record %v; want true, false", cached.ValuesElided(), tr.ValuesElided())
			}
			if cached.SizeBytes() >= tr.SizeBytes() {
				t.Errorf("cache recording is %d bytes, not below the value-carrying %d", cached.SizeBytes(), tr.SizeBytes())
			}
			ref, err := emu.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			r, rc := tr.NewReader(), cached.NewReader()
			var want, got, gotc trace.Dyn
			for i := 0; i < n; i++ {
				if !ref.Next(&want) {
					t.Fatalf("reference stream ended early at %d", i)
				}
				if !r.Next(&got) || !rc.Next(&gotc) {
					t.Fatalf("replay ended early at %d", i)
				}
				if got != want {
					t.Fatalf("inst %d: replay %+v, want %+v", i, got, want)
				}
				if want.Value = 0; gotc != want {
					t.Fatalf("inst %d: cache replay %+v, want %+v", i, gotc, want)
				}
			}
			if r.Next(&got) || rc.Next(&gotc) {
				t.Fatalf("replay yielded more than %d instructions", n)
			}
		})
	}
}

// TestReadersAreIndependent runs two interleaved cursors over one trace.
func TestReadersAreIndependent(t *testing.T) {
	prog := mustBench(t, "compress")
	m, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(m, 5000)
	a, b := tr.NewReader(), tr.NewReader()
	var da, db trace.Dyn
	for i := 0; i < 5000; i++ {
		if !a.Next(&da) || !b.Next(&db) {
			t.Fatalf("cursor ended early at %d", i)
		}
		if da != db {
			t.Fatalf("inst %d: cursors diverge: %+v vs %+v", i, da, db)
		}
	}
}

// TestSingleflight hammers one key from many goroutines: exactly one
// recording must run, and every caller must get the same trace.
func TestSingleflight(t *testing.T) {
	c := New(0)
	prog := mustBench(t, "gcc")
	const workers = 16
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = map[trace.Stream]bool{}
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.Stream(context.Background(), prog, 10_000)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[s] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Records != 1 {
		t.Errorf("Records = %d, want 1 (singleflight)", st.Records)
	}
	if st.Hits != workers-1 {
		t.Errorf("Hits = %d, want %d", st.Hits, workers-1)
	}
	if len(got) != workers {
		t.Errorf("got %d distinct readers, want %d (one cursor per caller)", len(got), workers)
	}
}

// TestRecordFailureNotCached asserts a failed recording propagates and the
// next request records afresh.
func TestRecordFailureNotCached(t *testing.T) {
	c := New(0)
	key := Key{Name: "broken", Insts: 10}
	boom := errors.New("boom")
	if _, err := c.GetOrRecord(context.Background(), key, func() (*Trace, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	tr, err := c.GetOrRecord(context.Background(), key, func() (*Trace, error) {
		return &Trace{}, nil
	})
	if err != nil || tr == nil {
		t.Fatalf("retry after failure: trace=%v err=%v", tr, err)
	}
	st := c.Stats()
	if st.RecordFailures != 1 || st.Records != 2 {
		t.Errorf("stats = %+v, want 1 failure and 2 records", st)
	}
}

// TestRecordPanicReleasesWaiters asserts a panicking recording re-panics in
// the recorder but leaves the entry absent (no wedged waiters, no poison).
func TestRecordPanicReleasesWaiters(t *testing.T) {
	c := New(0)
	key := Key{Name: "panicky", Insts: 10}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.GetOrRecord(context.Background(), key, func() (*Trace, error) {
			panic("kaboom")
		})
	}()
	if st := c.Stats(); st.Entries != 0 || st.RecordFailures != 1 {
		t.Errorf("after panic: stats = %+v, want no entries and 1 failure", st)
	}
}

// TestEvictionLRU fills a small budget and asserts the least-recently-used
// entry goes first.
func TestEvictionLRU(t *testing.T) {
	mk := func(bytes int) func() (*Trace, error) {
		return func() (*Trace, error) {
			return &Trace{data: make([]byte, bytes), n: 1}, nil
		}
	}
	c := New(300)
	ctx := context.Background()
	keyA := Key{Name: "a", Insts: 1}
	keyB := Key{Name: "b", Insts: 1}
	keyC := Key{Name: "c", Insts: 1}
	c.GetOrRecord(ctx, keyA, mk(120))
	c.GetOrRecord(ctx, keyB, mk(120))
	c.GetOrRecord(ctx, keyA, mk(120)) // touch A: B is now LRU
	c.GetOrRecord(ctx, keyC, mk(120)) // over budget: evict B
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	c.GetOrRecord(ctx, keyA, mk(999)) // must hit, not re-record
	if st := c.Stats(); st.Records != 3 {
		t.Errorf("Records = %d, want 3 (A survived eviction)", st.Records)
	}
}

// TestOversizeNotRetained: a recording bigger than the whole budget serves
// its flight but is not cached.
func TestOversizeNotRetained(t *testing.T) {
	c := New(100)
	tr, err := c.GetOrRecord(context.Background(), Key{Name: "big", Insts: 1}, func() (*Trace, error) {
		return &Trace{data: make([]byte, 500), n: 1}, nil
	})
	if err != nil || tr == nil {
		t.Fatalf("oversize flight: trace=%v err=%v", tr, err)
	}
	st := c.Stats()
	if st.Oversize != 1 || st.Entries != 0 || st.BytesLive != 0 {
		t.Errorf("stats = %+v, want oversize dropped", st)
	}
}

// TestFingerprintDistinguishesPrograms: same name, different content must
// not alias.
func TestFingerprintDistinguishesPrograms(t *testing.T) {
	build := func(imm int64) *isa.Program {
		b := isa.NewBuilder("same-name")
		b.Addi(isa.R(1), isa.R(0), imm)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if Fingerprint(build(1)) == Fingerprint(build(2)) {
		t.Fatal("programs differing only in an immediate share a fingerprint")
	}
	if Fingerprint(build(1)) != Fingerprint(build(1)) {
		t.Fatal("fingerprint is not deterministic")
	}
	// The data image is hashed as extents plus pages: a change to one
	// initialized byte, or to one extent's size alone, must register.
	withData := func(last byte, size uint64) *isa.Program {
		p := build(1)
		img := make([]byte, isa.PageSize)
		copy(img, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, last})
		p.Data = []isa.Segment{{Base: 0x10000, Size: size}}
		p.Pages = []isa.Page{{Addr: 0x10000, Bytes: img}}
		return p
	}
	if Fingerprint(withData(11, 16)) == Fingerprint(withData(12, 16)) {
		t.Fatal("programs differing only in one data byte share a fingerprint")
	}
	if Fingerprint(withData(11, 16)) == Fingerprint(withData(11, 24)) {
		t.Fatal("programs differing only in an extent's size share a fingerprint")
	}
}

// TestStreamNilCache: a nil *Cache serves a live emulator.
func TestStreamNilCache(t *testing.T) {
	var c *Cache
	s, err := c.Stream(context.Background(), mustBench(t, "compress"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*emu.Machine); !ok {
		t.Fatalf("nil cache returned %T, want *emu.Machine", s)
	}
}

// TestStreamBudgetIsPartOfKey: different budgets are distinct recordings.
func TestStreamBudgetIsPartOfKey(t *testing.T) {
	c := New(0)
	prog := mustBench(t, "compress")
	ctx := context.Background()
	for _, n := range []uint64{1000, 2000} {
		s, err := c.Stream(ctx, prog, n)
		if err != nil {
			t.Fatal(err)
		}
		var d trace.Dyn
		count := uint64(0)
		for s.Next(&d) {
			count++
		}
		if count != n {
			t.Fatalf("budget %d replayed %d instructions", n, count)
		}
	}
	if st := c.Stats(); st.Records != 2 {
		t.Errorf("Records = %d, want 2 (budget in key)", st.Records)
	}
}

// TestStreamContextCanceled: a waiter with a dead context fails fast even if
// it would otherwise hit.
func TestStreamContextCanceled(t *testing.T) {
	c := New(0)
	prog := mustBench(t, "compress")
	if _, err := c.Stream(context.Background(), prog, 1000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stream(ctx, prog, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func mustBench(t *testing.T, name string) *isa.Program {
	t.Helper()
	in, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return in.Build()
}

func BenchmarkReplay(b *testing.B) {
	prog := mustBenchB(b, "compress")
	m, err := emu.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	tr := Record(m, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	var d trace.Dyn
	for i := 0; i < b.N; i++ {
		r := tr.NewReader()
		for r.Next(&d) {
		}
	}
	b.SetBytes(int64(tr.Len()))
}

func mustBenchB(b *testing.B, name string) *isa.Program {
	b.Helper()
	in, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	return in.Build()
}
