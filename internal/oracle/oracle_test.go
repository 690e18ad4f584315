package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"lbic/internal/core"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
	"lbic/internal/workload"
)

// handProg builds a small program with a known memory history: initialized
// data, overlapping stores, store-to-load forwarding distance zero, and a
// final read-back of everything.
func handProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("oracle-hand")
	buf := b.Alloc(64, 64)
	b.Entry()
	b.Li(isa.R(1), int64(buf))
	b.Li(isa.R(2), 0x1122334455667788)
	b.Sd(isa.R(2), isa.R(1), 0) // [buf, buf+8) = 0x1122334455667788
	b.Ld(isa.R(3), isa.R(1), 0) // forwardable, full cover
	b.Li(isa.R(4), 0xABCD)
	b.Sw(isa.R(4), isa.R(1), 4)  // overlaps the Sd's high word
	b.Lw(isa.R(5), isa.R(1), 4)  // must see 0x0000ABCD
	b.Lw(isa.R(6), isa.R(1), 0)  // must still see 0x55667788
	b.Sb(isa.R(4), isa.R(1), 16) // isolated byte store (0xCD)
	b.Lbu(isa.R(7), isa.R(1), 16)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("building hand program: %v", err)
	}
	return p
}

func TestRunReference(t *testing.T) {
	ref, err := RunReference(handProg(t), 0)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	if ref.Loads != 4 || ref.Stores != 3 {
		t.Fatalf("got %d loads, %d stores, want 4 and 3", ref.Loads, ref.Stores)
	}
	if ref.MemOps != 7 {
		t.Fatalf("MemOps = %d, want 7", ref.MemOps)
	}
	want := []uint64{0x1122334455667788, 0xABCD, 0x55667788, 0xCD}
	got := make([]uint64, 0, len(ref.LoadValues))
	// Load seqs are ordered; collect in seq order.
	seqs := make([]uint64, 0, len(ref.LoadValues))
	for s := range ref.LoadValues {
		seqs = append(seqs, s)
	}
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if seqs[j] < seqs[i] {
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
	}
	for _, s := range seqs {
		got = append(got, ref.LoadValues[s])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("load %d read %#x, want %#x", i, got[i], want[i])
		}
	}
	if len(ref.Image) != 9 { // 8 bytes from Sd/Sw + 1 from Sb
		t.Errorf("image covers %d bytes, want 9", len(ref.Image))
	}
}

// organizations lists one factory per port organization, the full taxonomy.
var organizations = []struct {
	name string
	make func(lineSize int) (ports.Arbiter, error)
}{
	{"ideal-4", func(ls int) (ports.Arbiter, error) { return ports.NewIdeal(4) }},
	{"virt-4", func(ls int) (ports.Arbiter, error) { return ports.NewVirtual(4) }},
	{"repl-4", func(ls int) (ports.Arbiter, error) { return ports.NewReplicated(4) }},
	{"bank-4", func(ls int) (ports.Arbiter, error) { return ports.NewBanked(4, ls) }},
	{"banksq-4", func(ls int) (ports.Arbiter, error) { return ports.NewBankedSQ(4, ls, 0) }},
	{"mpb-2x2", func(ls int) (ports.Arbiter, error) { return ports.NewMultiPortedBanks(2, 2, ls) }},
	{"lbic-4x2", func(ls int) (ports.Arbiter, error) {
		return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: ls})
	}},
	{"lbic-4x2-greedy", func(ls int) (ports.Arbiter, error) {
		return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: ls, Policy: core.PolicyGreedy})
	}},
	{"coded-4x1", func(ls int) (ports.Arbiter, error) {
		return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 1, LineSize: ls})
	}},
	{"coded-4x2-spec", func(ls int) (ports.Arbiter, error) {
		return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 2, LineSize: ls, Speculative: true})
	}},
	{"coded-4x2-lb2", func(ls int) (ports.Arbiter, error) {
		return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 2, LineSize: ls, LinePorts: 2})
	}},
}

// TestDiffAllOrganizations differentially checks every port organization on
// every built-in access-pattern microbenchmark: all invariants hold, load
// values match the sequential reference exactly, and cycles land between
// ideal multi-porting at the organization's peak width and a single ideal
// port.
func TestDiffAllOrganizations(t *testing.T) {
	const maxInsts = 2000
	for _, pat := range workload.Patterns() {
		prog := pat.Build()
		for _, org := range organizations {
			t.Run(pat.Name+"/"+org.name, func(t *testing.T) {
				d, err := Diff(prog, org.make, maxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if d.Summary.Loads+d.Summary.Forwards != d.Ref.Loads {
					t.Errorf("checked %d+%d loads, reference executed %d",
						d.Summary.Loads, d.Summary.Forwards, d.Ref.Loads)
				}
				if d.Summary.Stores != d.Ref.Stores {
					t.Errorf("applied %d stores, reference executed %d", d.Summary.Stores, d.Ref.Stores)
				}
			})
		}
	}
}

// TestDiffHandProgram pins the differential check on the hand-built program
// whose memory history is known exactly.
func TestDiffHandProgram(t *testing.T) {
	for _, org := range organizations {
		t.Run(org.name, func(t *testing.T) {
			if _, err := Diff(handProg(t), org.make, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVirtualMatchesIdeal checks the taxonomy identity the virtual
// multi-port design promises: cycle-for-cycle equality with ideal
// multi-porting of the same width.
func TestVirtualMatchesIdeal(t *testing.T) {
	const maxInsts = 2000
	for _, width := range []int{2, 4} {
		for _, pat := range workload.Patterns() {
			prog := pat.Build()
			id, err := ports.NewIdeal(width)
			if err != nil {
				t.Fatal(err)
			}
			vt, err := ports.NewVirtual(width)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := RunStack(prog, id, maxInsts, false)
			if err != nil {
				t.Fatal(err)
			}
			rv, err := RunStack(prog, vt, maxInsts, false)
			if err != nil {
				t.Fatal(err)
			}
			if ri.Cycles != rv.Cycles {
				t.Errorf("%s width %d: virtual took %d cycles, ideal %d — must be identical",
					pat.Name, width, rv.Cycles, ri.Cycles)
			}
		}
	}
}

func dyn(seq uint64, store bool, addr uint64, size uint8, value uint64) *trace.Dyn {
	d := &trace.Dyn{Seq: seq, Addr: addr, Size: size, Value: value, Class: isa.ClassLoad}
	if store {
		d.Class = isa.ClassStore
	}
	return d
}

func wantFailure(t *testing.T, c *Checker, frag string) {
	t.Helper()
	err := c.Err()
	if err == nil {
		t.Fatalf("checker accepted a violation; wanted an error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("checker error %q does not mention %q", err, frag)
	}
}

// The negative tests fabricate event sequences a correct core can never
// produce and assert the checker rejects each one with a telling error.

func TestCheckerRejectsDoubleGrant(t *testing.T) {
	arb, _ := ports.NewIdeal(4)
	c := NewChecker(nil, arb)
	c.ObserveDispatch(dyn(1, false, 0x2000, 8, 0))
	c.ObserveAccess(0, 1, false, false)
	c.ObserveAccess(1, 1, false, false)
	wantFailure(t, c, "twice")
}

func TestCheckerRejectsLoadBypassingStore(t *testing.T) {
	arb, _ := ports.NewIdeal(4)
	c := NewChecker(nil, arb)
	c.ObserveDispatch(dyn(1, true, 0x2000, 8, 0xFF))
	c.ObserveDispatch(dyn(2, false, 0x2004, 4, 0))
	c.ObserveAccess(0, 2, false, false) // load accesses cache with the store still pending
	wantFailure(t, c, "bypassed older overlapping store")
}

func TestCheckerRejectsStoreReordering(t *testing.T) {
	arb, _ := ports.NewIdeal(4)
	c := NewChecker(nil, arb)
	c.ObserveDispatch(dyn(1, true, 0x2000, 8, 0x11))
	c.ObserveDispatch(dyn(2, true, 0x2004, 8, 0x22))
	c.ObserveAccess(0, 2, true, false) // younger overlapping store written first
	wantFailure(t, c, "before older overlapping store")
}

func TestCheckerRejectsWrongLoadValue(t *testing.T) {
	arb, _ := ports.NewIdeal(4)
	c := NewChecker(nil, arb)
	c.ObserveDispatch(dyn(1, true, 0x2000, 8, 0x1234))
	c.ObserveAccess(0, 1, true, false)
	c.ObserveDispatch(dyn(2, false, 0x2000, 8, 0x9999)) // ground truth disagrees with shadow
	c.ObserveAccess(1, 2, false, false)
	wantFailure(t, c, "oracle memory holds")
}

func TestCheckerRejectsBadForward(t *testing.T) {
	t.Run("not-pending", func(t *testing.T) {
		arb, _ := ports.NewIdeal(4)
		c := NewChecker(nil, arb)
		c.ObserveDispatch(dyn(2, false, 0x2000, 8, 0))
		c.ObserveForward(0, 2, 1)
		wantFailure(t, c, "not pending")
	})
	t.Run("no-cover", func(t *testing.T) {
		arb, _ := ports.NewIdeal(4)
		c := NewChecker(nil, arb)
		c.ObserveDispatch(dyn(1, true, 0x2000, 4, 0x7))
		c.ObserveDispatch(dyn(2, false, 0x2000, 8, 0x7))
		c.ObserveForward(0, 2, 1)
		wantFailure(t, c, "does not cover")
	})
	t.Run("wrong-value", func(t *testing.T) {
		arb, _ := ports.NewIdeal(4)
		c := NewChecker(nil, arb)
		c.ObserveDispatch(dyn(1, true, 0x2000, 8, 0x1122334455667788))
		c.ObserveDispatch(dyn(2, false, 0x2004, 4, 0xBAD))
		c.ObserveForward(0, 2, 1)
		wantFailure(t, c, "ground truth is")
	})
	t.Run("stale", func(t *testing.T) {
		arb, _ := ports.NewIdeal(4)
		c := NewChecker(nil, arb)
		c.ObserveDispatch(dyn(1, true, 0x2000, 8, 0x11))
		c.ObserveDispatch(dyn(2, true, 0x2000, 8, 0x22))
		c.ObserveDispatch(dyn(3, false, 0x2000, 8, 0x11))
		c.ObserveForward(0, 3, 1) // forwards from seq 1 past the newer seq 2
		wantFailure(t, c, "past newer overlapping store")
	})
}

func TestCheckerRejectsStallSumDrift(t *testing.T) {
	// The CPI bucket identity itself is asserted inside cpu.Step; here we
	// only pin that a run with the checker attached still passes it (the
	// positive case is exercised by every Diff test above).
	arb, _ := ports.NewIdeal(1)
	if _, err := RunStack(handProg(t), arb, 0, false); err != nil {
		t.Fatal(err)
	}
}

// TestGrantValidator feeds hand-built illegal grant sets to each
// organization's validator.
func TestGrantValidator(t *testing.T) {
	const lineSize = 32
	reqs := func(specs ...[2]uint64) []ports.Request {
		r := make([]ports.Request, len(specs))
		for i, s := range specs {
			r[i] = ports.Request{Seq: uint64(i + 1), Addr: s[0], Store: s[1] == 1}
		}
		return r
	}
	mk := func(t *testing.T, f func() (ports.Arbiter, error)) ports.Arbiter {
		t.Helper()
		a, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name    string
		arb     func() (ports.Arbiter, error)
		ready   []ports.Request
		granted []int
		frag    string // "" = must pass
	}{
		{"over-peak", func() (ports.Arbiter, error) { return ports.NewIdeal(2) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}, [2]uint64{16, 0}), []int{0, 1, 2}, "peak width"},
		{"not-increasing", func() (ports.Arbiter, error) { return ports.NewIdeal(4) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}), []int{1, 0}, "strictly increasing"},
		{"ideal-skip", func() (ports.Arbiter, error) { return ports.NewIdeal(4) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}), []int{1}, "oldest"},
		{"ideal-ok", func() (ports.Arbiter, error) { return ports.NewIdeal(4) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}), []int{0, 1}, ""},
		{"repl-store-pair", func() (ports.Arbiter, error) { return ports.NewReplicated(4) },
			reqs([2]uint64{0, 1}, [2]uint64{8, 0}), []int{0, 1}, "broadcast"},
		{"repl-ok", func() (ports.Arbiter, error) { return ports.NewReplicated(4) },
			reqs([2]uint64{0, 1}, [2]uint64{8, 0}), []int{0}, ""},
		{"bank-double", func() (ports.Arbiter, error) { return ports.NewBanked(4, lineSize) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}), []int{0, 1}, "oldest first"},
		{"bank-ok", func() (ports.Arbiter, error) { return ports.NewBanked(4, lineSize) },
			reqs([2]uint64{0, 0}, [2]uint64{32, 0}), []int{0, 1}, ""},
		{"mpb-over", func() (ports.Arbiter, error) { return ports.NewMultiPortedBanks(2, 2, lineSize) },
			reqs([2]uint64{0, 0}, [2]uint64{8, 0}, [2]uint64{64, 0}), []int{0, 1, 2}, "oldest first"},
		{"lbic-cross-line", func() (ports.Arbiter, error) {
			return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: lineSize})
		}, reqs([2]uint64{0, 0}, [2]uint64{128, 0}), []int{0, 1}, "open line"},
		{"lbic-over-width", func() (ports.Arbiter, error) {
			return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: lineSize})
		}, reqs([2]uint64{0, 0}, [2]uint64{8, 0}, [2]uint64{16, 0}), []int{0, 1, 2}, "line buffer has"},
		{"lbic-starved-lead", func() (ports.Arbiter, error) {
			return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: lineSize})
		}, reqs([2]uint64{0, 0}, [2]uint64{32, 0}), []int{1}, "oldest ready request"},
		{"lbic-ok", func() (ports.Arbiter, error) {
			return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: lineSize})
		}, reqs([2]uint64{0, 0}, [2]uint64{8, 0}, [2]uint64{32, 0}), []int{0, 1, 2}, ""},
		{"banksq-two-loads", func() (ports.Arbiter, error) { return ports.NewBankedSQ(2, lineSize, 0) },
			reqs([2]uint64{0, 0}, [2]uint64{64, 0}), []int{0, 1}, "store queue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewGrantValidator(mk(t, tc.arb))
			err := v.Validate(0, tc.ready, tc.granted)
			if tc.frag == "" {
				if err != nil {
					t.Fatalf("legal grant rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("illegal grant accepted; wanted an error containing %q", tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestGrantValidatorGreedyChoice feeds the validator of a greedy LBIC the
// grants of an impostor: a leading-policy LBIC of the same shape, which
// opens the bank's oldest request even when a younger line has the larger
// group. Off the rotation cycles that must be rejected, and the real greedy
// arbiter's grants accepted; on a rotation cycle the oldest request wins, so
// the impostor's choice is the legal one.
func TestGrantValidatorGreedyChoice(t *testing.T) {
	shape := core.Config{Banks: 2, LinePorts: 2, LineSize: 32}
	build := func(p core.Policy) *core.LBIC {
		cfg := shape
		cfg.Policy = p
		a, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ready := []ports.Request{
		{Seq: 1, Addr: 0x000}, // bank 0, line 0: alone
		{Seq: 2, Addr: 0x040}, // bank 0, line 2
		{Seq: 3, Addr: 0x048}, // bank 0, line 2: a group of two
		{Seq: 4, Addr: 0x020}, // bank 1, line 1
	}
	for _, now := range []uint64{1, core.GreedyRotate - 1, core.GreedyRotate, 3 * core.GreedyRotate} {
		rotation := now%core.GreedyRotate == 0
		v := NewGrantValidator(build(core.PolicyGreedy))
		impostor := build(core.PolicyLeading).Grant(now, ready, nil)
		err := v.Validate(now, ready, impostor)
		switch {
		case rotation && err != nil:
			t.Errorf("cycle %d (rotation): oldest-request grants %v rejected: %v", now, impostor, err)
		case !rotation && err == nil:
			t.Errorf("cycle %d: grants %v open the smaller group but were accepted", now, impostor)
		case !rotation && !strings.Contains(err.Error(), "largest same-line groups"):
			t.Errorf("cycle %d: error %q does not name the greedy rule", now, err)
		}
		greedy := build(core.PolicyGreedy)
		if got := greedy.Grant(now, ready, nil); !rotation {
			if err := v.Validate(now, ready, got); err != nil {
				t.Errorf("cycle %d: the greedy arbiter's grants %v rejected: %v", now, got, err)
			}
		}
	}
}

// TestGreedyChoiceFullScanDepth drives the greedy LBIC with ready lists up
// to the 4096-request scan-depth cap, which its grouping table must grow to
// hold, and checks every non-rotation cycle's choice against the reference.
func TestGreedyChoiceFullScanDepth(t *testing.T) {
	a, err := core.New(core.Config{Banks: 2, LinePorts: 4, LineSize: 32, Policy: core.PolicyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	v := NewGrantValidator(a)
	rng := rand.New(rand.NewSource(1))
	var dst []int
	for now, n := range []int{1, 64, 65, 1000, 4096, 3} {
		ready := make([]ports.Request, n)
		for i := range ready {
			// 64 lines over two banks, so groups of every size form.
			ready[i] = ports.Request{Seq: uint64(i + 1), Addr: uint64(rng.Intn(64))*32 + uint64(rng.Intn(4))*8}
		}
		cycle := uint64(now + 1)
		dst = a.Grant(cycle, ready, dst[:0])
		if err := v.Validate(cycle, ready, dst); err != nil {
			t.Fatalf("%d ready requests: %v", n, err)
		}
	}
}

// fakeQueues drives the FIFO monitor with scripted snapshots.
type fakeQueues struct {
	n, d int
	q    []uint64
}

func (f *fakeQueues) banks() int                         { return f.n }
func (f *fakeQueues) depth() int                         { return f.d }
func (f *fakeQueues) lines(_ int, dst []uint64) []uint64 { return append(dst, f.q...) }

func TestQueueMonitorRejectsNonFIFO(t *testing.T) {
	f := &fakeQueues{n: 1, d: 4}
	m := &queueMonitor{src: f, name: "fake", prev: make([][]uint64, 1), cur: make([][]uint64, 1)}
	f.q = []uint64{10, 11}
	if err := m.check(0); err != nil {
		t.Fatalf("initial snapshot rejected: %v", err)
	}
	f.q = []uint64{10, 11, 12}
	if err := m.check(1); err != nil {
		t.Fatalf("append rejected: %v", err)
	}
	f.q = []uint64{11, 12}
	if err := m.check(2); err != nil {
		t.Fatalf("front retire rejected: %v", err)
	}
	f.q = []uint64{12} // retires front entry 11
	if err := m.check(3); err != nil {
		t.Fatalf("second retire rejected: %v", err)
	}
	f.q = []uint64{99} // replaces the remaining entry: not FIFO
	if err := m.check(4); err == nil || !strings.Contains(err.Error(), "FIFO") {
		t.Fatalf("non-FIFO transition accepted (err=%v)", err)
	}
	f2 := &fakeQueues{n: 1, d: 1, q: []uint64{1, 2}}
	m2 := &queueMonitor{src: f2, name: "fake", prev: make([][]uint64, 1), cur: make([][]uint64, 1)}
	if err := m2.check(0); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("over-capacity queue accepted (err=%v)", err)
	}
}
