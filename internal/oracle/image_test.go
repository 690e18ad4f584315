package oracle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/tracecache"
	"lbic/internal/workload"
)

// imageOp is one step of a random builder script: a reservation (Alloc or
// AllocAt) or an initializing write (one of the Set* helpers).
type imageOp struct {
	alloc, at bool
	addr      uint64 // AllocAt base, or the write's address
	size      int
	align     uint64
	set       int // which Set* helper: 0 byte, 1 word32, 2 word64, 3 float64, 4 bytes
	val       uint64
	buf       []byte
}

// apply runs op against b and returns the bytes it writes (nil for a
// reservation) together with the base a reservation got.
func (op imageOp) apply(b *isa.Builder) (base uint64, wrote []byte) {
	switch {
	case op.alloc && op.at:
		return b.AllocAt(op.addr, op.size), nil
	case op.alloc:
		return b.Alloc(op.size, op.align), nil
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], op.val)
	switch op.set {
	case 0:
		b.SetByte(op.addr, byte(op.val))
		return 0, w[:1]
	case 1:
		b.SetWord32(op.addr, uint32(op.val))
		return 0, w[:4]
	case 2:
		b.SetWord64(op.addr, op.val)
		return 0, w[:8]
	case 3:
		b.SetFloat64(op.addr, math.Float64frombits(op.val))
		return 0, w[:8]
	default:
		b.SetBytes(op.addr, op.buf)
		return 0, op.buf
	}
}

// randomScript draws a builder script: up to four reservations of 0–3
// pages, some at exact addresses, and writes that include zeros over
// non-zero bytes and runs that straddle a page boundary. It returns the
// script and the extents it reserves.
func randomScript(rng *rand.Rand) ([]imageOp, []isa.Segment) {
	var ops []imageOp
	var exts []isa.Segment
	b := isa.NewBuilder("script")
	top := uint64(isa.DataBase)
	for range 1 + rng.Intn(4) {
		op := imageOp{alloc: true, size: rng.Intn(3*isa.PageSize + 1)}
		if rng.Intn(2) == 0 {
			op.at = true
			op.addr = top + uint64(rng.Intn(2*isa.PageSize))
		} else {
			op.align = []uint64{1, 8, 64, isa.PageSize}[rng.Intn(4)]
		}
		base, _ := op.apply(b)
		ops = append(ops, op)
		exts = append(exts, isa.Segment{Base: base, Size: uint64(op.size)})
		top = base + uint64(op.size)
	}
	var writes []imageOp
	for range rng.Intn(40) {
		s := exts[rng.Intn(len(exts))]
		op := imageOp{set: rng.Intn(5), val: rng.Uint64()}
		n := []int{1, 4, 8, 8, 1 + rng.Intn(2*isa.PageSize)}[op.set]
		if int(s.Size) < n {
			continue
		}
		op.addr = s.Base + uint64(rng.Intn(int(s.Size)-n+1))
		if next := (op.addr | (isa.PageSize - 1)) + 1; rng.Intn(3) == 0 && next-uint64(n)/2 >= s.Base && next+uint64(n) <= s.End() {
			op.addr = next - uint64(max(1, n/2)) // straddle the page boundary
		}
		switch rng.Intn(4) {
		case 0:
			op.val = 0
		case 1:
			if len(writes) > 0 { // zero over an earlier write
				op = writes[rng.Intn(len(writes))]
				op.val, op.buf = 0, make([]byte, len(op.buf))
			}
		}
		if op.set == 4 && op.buf == nil {
			op.buf = make([]byte, n)
			for i := range op.buf {
				if rng.Intn(4) != 0 {
					op.buf[i] = byte(rng.Intn(256))
				}
			}
		}
		writes = append(writes, op)
	}
	return append(ops, writes...), exts
}

// build replays a script into a fresh builder, and into a dense reference
// image spanning [lo, lo+len(ref)).
func build(t *testing.T, ops []imageOp, lo uint64, ref []byte) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("prop")
	for _, op := range ops {
		if _, wrote := op.apply(b); ref != nil && wrote != nil {
			copy(ref[op.addr-lo:], wrote)
		}
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSparseImageMatchesDense is the differential property test of the
// sparse data image: for random builder scripts, the emulator's memory and
// the oracle's initial image read, over every extent and one page either
// side, exactly what a dense reference holds; Save/Load round-trips the
// image; and the trace-cache fingerprint moves when one initialized byte or
// one extent's size does.
func TestSparseImageMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	arb, err := ports.NewIdeal(2)
	if err != nil {
		t.Fatal(err)
	}
	for iter := range 100 {
		ops, exts := randomScript(rng)
		lo := exts[0].Base - isa.PageSize
		ref := make([]byte, exts[len(exts)-1].End()+isa.PageSize-lo)
		p := build(t, ops, lo, ref)

		m, err := emu.New(p)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		c := NewChecker(p, arb)
		for _, s := range exts {
			for a := s.Base - isa.PageSize; a < s.End()+isa.PageSize; a++ {
				want := ref[a-lo]
				if got := m.Mem().LoadByte(a); got != want {
					t.Fatalf("iter %d: emulator reads %#x at %#x, dense image holds %#x", iter, got, a, want)
				}
				if got := c.base.LoadByte(a); got != want {
					t.Fatalf("iter %d: oracle reads %#x at %#x, dense image holds %#x", iter, got, a, want)
				}
			}
		}

		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := isa.Load(&buf)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		samePage := func(x, y isa.Page) bool { return x.Addr == y.Addr && bytes.Equal(x.Bytes, y.Bytes) }
		if !slices.Equal(p.Data, q.Data) || !slices.EqualFunc(p.Pages, q.Pages, samePage) {
			t.Fatalf("iter %d: Save/Load changed the image: %v -> %v", iter, p.Data, q.Data)
		}

		fp := tracecache.Fingerprint(p)
		s := exts[rng.Intn(len(exts))]
		if s.Size > 0 {
			a := s.Base + uint64(rng.Intn(int(s.Size)))
			flip := append(slices.Clone(ops), imageOp{set: 0, addr: a, val: uint64(ref[a-lo] ^ 1)})
			if tracecache.Fingerprint(build(t, flip, 0, nil)) == fp {
				t.Fatalf("iter %d: flipping the byte at %#x kept the fingerprint", iter, a)
			}
		}
		grown := slices.Clone(ops)
		for i := len(grown) - 1; i >= 0; i-- {
			if grown[i].alloc {
				grown[i].size++ // the last reservation: nothing follows it
				break
			}
		}
		if tracecache.Fingerprint(build(t, grown, 0, nil)) == fp {
			t.Fatalf("iter %d: growing the last extent by one byte kept the fingerprint", iter)
		}
	}
}

// kernelImages pins each kernel's reserved bytes and its disassembly's
// .data lines, as the dense image of the original builder reported them.
var kernelImages = []struct {
	name  string
	bytes int
	data  []string
}{
	{"compress", 1065984, []string{".data 0x100000  262144 bytes", ".data 0x200d20  262144 bytes", ".data 0x284000  1024 bytes", ".data 0x300000  16384 bytes", ".data 0x400000  524288 bytes"}},
	{"gcc", 287232, []string{".data 0x100000  24576 bytes", ".data 0x206000  512 bytes", ".data 0x300000  262144 bytes"}},
	{"go", 276480, []string{".data 0x100000  2048 bytes", ".data 0x200800  8192 bytes", ".data 0x282800  4096 bytes", ".data 0x300000  262144 bytes"}},
	{"li", 73728, []string{".data 0x100000  8192 bytes", ".data 0x202000  65536 bytes"}},
	{"perl", 295936, []string{".data 0x100000  262144 bytes", ".data 0x200420  1024 bytes", ".data 0x300000  32768 bytes"}},
	{"hydro2d", 7168016, []string{".data 0x1000000  2334720 bytes", ".data 0x2000d00  2396160 bytes", ".data 0x3001a00  2437120 bytes", ".data 0x3254a00  16 bytes"}},
	{"mgrid", 1769504, []string{".data 0x1000000  884736 bytes", ".data 0x2000d00  884736 bytes", ".data 0x20d8d00  32 bytes"}},
	{"su2cor", 4194368, []string{".data 0x200d00  64 bytes", ".data 0x1000000  4194304 bytes"}},
	{"swim", 9437184, []string{".data 0x1000000  1572864 bytes", ".data 0x2000d00  1572864 bytes", ".data 0x3001a00  1572864 bytes", ".data 0x4002720  1572864 bytes", ".data 0x5003440  1572864 bytes", ".data 0x6004160  1572864 bytes"}},
	{"wave5", 1574928, []string{".data 0x1000000  524288 bytes", ".data 0x2000d00  524288 bytes", ".data 0x3001a00  524288 bytes", ".data 0x4002700  2048 bytes", ".data 0x4002f00  16 bytes"}},
}

// TestKernelImageBudget: building the ten kernels and loading each into one
// emulator and one oracle allocates in proportion to the pages the kernels
// initialize, not the 25 MiB they reserve (dense images cost 76 MiB here).
// Each kernel still reserves, and disassembles to, what it always did.
func TestKernelImageBudget(t *testing.T) {
	const budget = 8 << 20
	arb, err := ports.NewIdeal(4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var progs []*isa.Program
	for _, in := range workload.All() {
		p := in.Build()
		if _, err := emu.New(p); err != nil {
			t.Fatal(err)
		}
		NewChecker(p, arb)
		progs = append(progs, p)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MiB", float64(got)/(1<<20))
	if got >= budget {
		t.Errorf("building, emulating and checking the ten kernels allocated %.1f MiB, budget %d MiB",
			float64(got)/(1<<20), budget>>20)
	}

	if len(progs) != len(kernelImages) {
		t.Fatalf("%d kernels, want %d", len(progs), len(kernelImages))
	}
	total := 0
	for i, want := range kernelImages {
		p := progs[i]
		total += p.DataBytes()
		if p.Name != want.name || p.DataBytes() != want.bytes {
			t.Errorf("kernel %d: %s reserves %d bytes, want %s with %d", i, p.Name, p.DataBytes(), want.name, want.bytes)
		}
		var sb strings.Builder
		if err := p.Disassemble(&sb); err != nil {
			t.Fatal(err)
		}
		var data []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "  .data") {
				data = append(data, strings.TrimSpace(line))
			}
		}
		if !slices.Equal(data, want.data) {
			t.Errorf("%s .data lines:\n%q\nwant\n%q", p.Name, data, want.data)
		}
	}
	if total != 26_143_360 {
		t.Errorf("the kernels reserve %d bytes in all, want 26143360", total)
	}
}
