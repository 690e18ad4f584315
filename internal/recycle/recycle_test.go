package recycle

import (
	"sync"
	"testing"
)

// TestMakeIsZeroedAtItsLength: whatever was put back, and at whatever
// length, Make hands out exactly what make would: n zero values, capacity n.
func TestMakeIsZeroedAtItsLength(t *testing.T) {
	var p Slices[uint64]
	for round := 0; round < 4; round++ {
		for _, n := range []int{1, 7, 64, 1024} {
			buf := p.Make(n)
			if len(buf) != n || cap(buf) != n {
				t.Fatalf("Make(%d): len %d cap %d", n, len(buf), cap(buf))
			}
			for i, v := range buf {
				if v != 0 {
					t.Fatalf("Make(%d)[%d] = %d after reuse, want 0", n, i, v)
				}
				buf[i] = ^uint64(0)
			}
			p.Put(buf)
			p.Put(append(p.Make(n), 1)) // grown past n: dropped, not reused
			p.Put(buf[:0])              // length does not matter, capacity does
		}
	}
}

// TestConcurrentMakePut runs many owners at once, each dirtying its buffer
// before returning it; under -race this also checks the pools' hand-off.
func TestConcurrentMakePut(t *testing.T) {
	var p Slices[int32]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 16 << (i % 3)
				buf := p.Make(n)
				for j := range buf {
					if buf[j] != 0 {
						t.Errorf("goroutine %d: Make(%d)[%d] = %d, want 0", g, n, j, buf[j])
						return
					}
					buf[j] = int32(g + 1)
				}
				p.Put(buf)
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmCycleAllocatesNothing: once a capacity has been made and put back,
// a Make and Put of it allocate neither a buffer nor the box the pool keeps
// it in. Skipped under the race detector, whose pools drop items at random.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	var p Slices[uint64]
	p.Put(p.Make(1024))
	if avg := testing.AllocsPerRun(100, func() { p.Put(p.Make(1024)) }); avg != 0 {
		t.Errorf("a warm Make and Put allocate %.2f objects, want 0", avg)
	}
}
