package cpu

import (
	"fmt"
	"testing"
	"unsafe"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/trace"
)

func div(dst, src1, src2 isa.Reg) trace.Dyn {
	return trace.Dyn{Op: isa.Div, Class: isa.ClassIntDiv, Dst: dst, Src1: src1, Src2: src2}
}

// issueCycles runs dyns to completion and returns the cycle each sequence
// number issued in. An issued entry stays in stIssued at least until the end
// of its issue cycle (every latency is at least one), so a scan after each
// Step sees every issue.
func issueCycles(t *testing.T, dyns []trace.Dyn, mut func(*Config)) []uint64 {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000
	mut(&cfg)
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]uint64, len(dyns))
	seen := make([]bool, len(dyns))
	for !c.Done() {
		now := c.Now()
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for i := range c.entries {
			if e := &c.entries[i]; e.state == stIssued && !seen[e.seq] {
				at[e.seq], seen[e.seq] = now, true
			}
		}
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("seq %d never seen issuing", seq)
		}
	}
	return at
}

// TestIssueOrderUnderDivideContention pins the issue stage's order when an
// unpipelined unit is oversubscribed and the issue width is small: ready
// instructions younger than a blocked divide still issue in the same cycle,
// and the blocked divides issue oldest-first as their unit frees. The
// wrapped case starts the divides near the end of an 8-entry window, so the
// younger instructions sit in slots below the head and the age-ordered scan
// must wrap to reach them.
func TestIssueOrderUnderDivideContention(t *testing.T) {
	divs := func() []trace.Dyn {
		return []trace.Dyn{div(r(1), r(20), r(21)), div(r(2), r(20), r(21)), div(r(3), r(20), r(21))}
	}
	alus := func(n int) []trace.Dyn {
		var out []trace.Dyn
		for i := 0; i < n; i++ {
			out = append(out, alu(r(10+i), r(20), r(21)))
		}
		return out
	}
	cases := []struct {
		name string
		dyns []trace.Dyn
		mut  func(*Config)
		want []uint64 // issue cycle by seq
	}{{
		// d0 d1 d2 a0 a1 a2 a3, one divider, two issue slots: d0 and a0
		// issue past the blocked d1 and d2 in cycle 1; d1 issues when d0
		// frees the unit 12 cycles later, then d2.
		name: "flat",
		dyns: append(divs(), alus(4)...),
		mut: func(c *Config) {
			c.IssueWidth = 2
			c.FUCount[isa.ClassIntDiv] = 1
		},
		want: []uint64{1, 13, 25, 1, 2, 2, 3},
	}, {
		// f0..f4 d0 d1 d2 a0..a3 in an 8-entry window: a0..a3 dispatch into
		// slots 0..3 once f0..f3 commit, behind the divides in slots 5..7.
		name: "wrapped",
		dyns: append(append(alus(5), divs()...), alus(4)...),
		mut: func(c *Config) {
			c.IssueWidth = 2
			c.RUUSize = 8
			c.LSQSize = 8
			c.FUCount[isa.ClassIntDiv] = 1
		},
		want: []uint64{1, 1, 2, 2, 3, 3, 15, 27, 4, 4, 5, 5},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := issueCycles(t, tc.dyns, tc.mut)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("issue cycles by seq = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDependentChainIsWiringOrder: a producer's dependent chain lists its
// waiting operands in the order dispatch wired them (operand 1 before
// operand 2 of one consumer), which is the order complete wakes them in.
func TestDependentChainIsWiringOrder(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dyns := []trace.Dyn{
		load(r(1), r(20), 0x40000), // producer: a cold miss
		alu(r(2), r(1), r(1)),      // both operands
		alu(r(3), r(20), r(1)),     // operand 2
		store(r(1), r(1), 0x80000), // base (operand 1) and value (operand 2)
		alu(r(4), r(1), r(21)),     // operand 1
	}
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil { // cycle 0 dispatches all five
		t.Fatal(err)
	}
	var got []int32
	for l := c.entries[0].depHead; l >= 0; l = c.depNext[l] {
		got = append(got, l)
	}
	want := []int32{1<<1 | 0, 1<<1 | 1, 2<<1 | 1, 3<<1 | 0, 3<<1 | 1, 4<<1 | 0}
	if fmt.Sprint(got) != fmt.Sprint(want) || c.entries[0].depTail != want[len(want)-1] {
		t.Fatalf("dependent chain %v (tail %d), want %v", got, c.entries[0].depTail, want)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEntrySize pins the slim RUU entry: 40 bytes keeps the Table 1 window
// of 1024 entries within a 48 KB host L1 data cache.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 40 {
		t.Errorf("RUU entry is %d bytes, want 40", got)
	}
}
