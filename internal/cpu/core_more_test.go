package cpu

import (
	"strconv"
	"strings"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// TestMSHRExhaustionRetries drives more concurrent misses than MSHRs: the
// blocked grants must be retried and every load must still complete.
func TestMSHRExhaustionRetries(t *testing.T) {
	const n = 200
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		// Every load goes to a distinct line: all misses.
		dyns[i] = load(r(1+i%8), r(20), 0x100000+uint64(i)*64)
	}
	hier, err := cache.NewHierarchy(func() cache.Params {
		p := cache.DefaultParams()
		p.MSHRs = 4
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != n {
		t.Fatalf("committed %d, want %d", st.Committed, n)
	}
	if st.PortBlocked == 0 {
		t.Error("expected MSHR-full port rejections")
	}
	if hier.Stats().Blocked == 0 {
		t.Error("hierarchy should have counted blocked accesses")
	}
}

// TestCommitWidthBound: with commit width 2, IPC cannot exceed 2.
func TestCommitWidthBound(t *testing.T) {
	const n = 400
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1+i%16), r(20), r(21))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.CommitWidth = 2
	})
	if s.IPC() > 2.001 {
		t.Errorf("IPC %.3f exceeds commit width 2", s.IPC())
	}
	if s.IPC() < 1.6 {
		t.Errorf("IPC %.3f far below the commit bound for independent ops", s.IPC())
	}
}

// TestFetchWidthBound: with fetch width 3, IPC cannot exceed 3.
func TestFetchWidthBound(t *testing.T) {
	const n = 400
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1+i%16), r(20), r(21))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.FetchWidth = 3
	})
	if s.IPC() > 3.001 {
		t.Errorf("IPC %.3f exceeds fetch width 3", s.IPC())
	}
}

// TestIssueWidthBound: with issue width 4, IPC cannot exceed 4.
func TestIssueWidthBound(t *testing.T) {
	const n = 400
	dyns := make([]trace.Dyn, n)
	for i := range dyns {
		dyns[i] = alu(r(1+i%16), r(20), r(21))
	}
	s := runStream(t, dyns, ideal(t, 1), func(c *Config) {
		c.IssueWidth = 4
	})
	if s.IPC() > 4.001 {
		t.Errorf("IPC %.3f exceeds issue width 4", s.IPC())
	}
}

// TestVirtualMatchesIdeal: time-division multiplexing must be grant-identical
// to ideal multi-porting (the §1 taxonomy equivalence).
func TestVirtualMatchesIdeal(t *testing.T) {
	mk := func(n int) []trace.Dyn {
		var dyns []trace.Dyn
		for i := 0; i < n; i++ {
			base := 0x10000 + uint64(i%32)*64
			dyns = append(dyns,
				load(r(1+i%8), r(20), base),
				store(r(2), r(20), base+8),
				alu(r(9+i%8), r(21), r(22)),
			)
		}
		return dyns
	}
	virt, err := ports.NewVirtual(2)
	if err != nil {
		t.Fatal(err)
	}
	sVirt := runStream(t, mk(300), virt, nil)
	sIdeal := runStream(t, mk(300), ideal(t, 2), nil)
	if sVirt.Cycles != sIdeal.Cycles {
		t.Errorf("virt-2 %d cycles != true-2 %d cycles", sVirt.Cycles, sIdeal.Cycles)
	}
	if virt.Name() != "virt-2" || virt.ClockMultiple != 2 {
		t.Error("virtual metadata wrong")
	}
}

// TestPipelineViewOutput checks the view prints the column header and one
// line per cycle whose commit column adds up to the run's total.
func TestPipelineViewOutput(t *testing.T) {
	dyns := make([]trace.Dyn, 50)
	for i := range dyns {
		dyns[i] = alu(r(1+i%8), r(20), r(21))
	}
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	c.SetPipelineView(PipelineView{W: &sb})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 50 {
		t.Fatalf("committed %d", st.Committed)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if f := strings.Fields(lines[0]); len(f) != 10 || f[0] != "cycle" || f[3] != "ruu" || f[9] != "head" {
		t.Fatalf("header = %q", lines[0])
	}
	if uint64(len(lines)-1) != st.Cycles {
		t.Errorf("%d rows for %d cycles", len(lines)-1, st.Cycles)
	}
	var committed uint64
	for _, l := range lines[1:] {
		n, err := strconv.ParseUint(strings.Fields(l)[1], 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", l, err)
		}
		committed += n
	}
	if committed != 50 {
		t.Errorf("commit column sums to %d, want 50:\n%s", committed, sb.String())
	}
}

// TestInspectors: occupancy accessors stay coherent mid-run.
func TestInspectors(t *testing.T) {
	var dyns []trace.Dyn
	for i := 0; i < 100; i++ {
		dyns = append(dyns,
			load(r(1+i%8), r(20), 0x100000+uint64(i)*64), // all misses
			store(r(2), r(20), 0x200000+uint64(i)*64),
		)
	}
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawWork := false
	for !c.Done() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.InFlight() < 0 || c.InFlight() > cfg.RUUSize {
			t.Fatalf("InFlight out of range: %d", c.InFlight())
		}
		if c.LSQLen() > cfg.LSQSize {
			t.Fatalf("LSQLen %d exceeds capacity", c.LSQLen())
		}
		if c.MemPendingLen() > 0 || c.StoreBufferLen() > 0 {
			sawWork = true
		}
		if st := c.HeadState(); st == "" {
			t.Fatal("empty head state")
		}
	}
	if !sawWork {
		t.Error("inspectors never observed memory activity")
	}
	if c.HeadState() != "empty" {
		t.Errorf("final head state %q, want empty", c.HeadState())
	}
}

// TestOrderParkedAccessor exercises the ordering-stall visibility.
func TestOrderParkedAccessor(t *testing.T) {
	dyns := []trace.Dyn{
		{Op: isa.Div, Class: isa.ClassIntDiv, Dst: r(1), Src1: r(2), Src2: r(3)},
		{Op: isa.Sd, Class: isa.ClassStore, Src1: r(1), Src2: r(2), Addr: 0x40000, Size: 8},
		load(r(5), r(6), 0x50000),
	}
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parked := false
	for !c.Done() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.OrderParkedLen() > 0 {
			parked = true
		}
	}
	if !parked {
		t.Error("load behind an unknown store address never showed as order-parked")
	}
}

// TestIssuedByClass: the per-class breakdown sums to the total issues and
// lands in the right classes.
func TestIssuedByClass(t *testing.T) {
	dyns := []trace.Dyn{
		alu(r(1), r(20), r(21)),
		{Op: isa.Mul, Class: isa.ClassIntMul, Dst: r(2), Src1: r(20), Src2: r(21)},
		{Op: isa.FAdd, Class: isa.ClassFPAdd, Dst: isa.F(1), Src1: isa.F(2), Src2: isa.F(3)},
		load(r(3), r(20), 0x10000),
		store(r(3), r(20), 0x10008),
	}
	s := runStream(t, dyns, ideal(t, 2), nil)
	var sum uint64
	for _, n := range s.IssuedByClass {
		sum += n
	}
	if sum != s.Issued {
		t.Errorf("class sum %d != issued %d", sum, s.Issued)
	}
	if s.IssuedByClass[isa.ClassIntALU] != 1 || s.IssuedByClass[isa.ClassIntMul] != 1 ||
		s.IssuedByClass[isa.ClassFPAdd] != 1 || s.IssuedByClass[isa.ClassLoad] != 1 ||
		s.IssuedByClass[isa.ClassStore] != 1 {
		t.Errorf("class breakdown wrong: %v", s.IssuedByClass)
	}
}

func TestNewRejectsNilArguments(t *testing.T) {
	hier, _ := cache.NewHierarchy(cache.DefaultParams())
	arb, _ := ports.NewIdeal(1)
	stream := trace.NewSliceStream(nil)
	if _, err := New(nil, hier, arb, DefaultConfig()); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := New(stream, nil, arb, DefaultConfig()); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := New(stream, hier, nil, DefaultConfig()); err == nil {
		t.Error("nil arbiter accepted")
	}
}
