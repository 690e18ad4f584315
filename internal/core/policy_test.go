package core

import (
	"testing"

	"lbic/internal/ports"
)

func newGreedy(t *testing.T, m, n int) *ports.Banks {
	t.Helper()
	a, err := New(Config{Banks: m, LinePorts: n, LineSize: 32, Policy: PolicyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPolicyStrings(t *testing.T) {
	if PolicyLeading.String() != "leading" || PolicyGreedy.String() != "greedy" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "policy(?)" {
		t.Error("unknown policy name wrong")
	}
}

func TestGreedyName(t *testing.T) {
	a := newGreedy(t, 4, 2)
	if a.Name() != "lbic-4x2-greedy" {
		t.Errorf("Name() = %q", a.Name())
	}
}

// An older lone request loses its bank to a younger two-request group under
// the greedy policy (on a non-rotation cycle), but wins under leading.
func TestGreedyPrefersLargerGroup(t *testing.T) {
	ready := reqs(
		ports.Request{Addr: 0x1000}, // oldest: line 0x80, bank 0, alone
		ports.Request{Addr: 0x1100}, // line 0x88, bank 0
		ports.Request{Addr: 0x1108}, // line 0x88, bank 0: group of two
		ports.Request{Addr: 0x1020}, // bank 1 (so the cycle grants something there too)
	)

	greedy := newGreedy(t, 4, 2)
	got := greedy.Grant(1, ready, nil) // cycle 1: not a rotation cycle
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("greedy grants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("greedy grants = %v, want %v", got, want)
		}
	}
	if greedy.Stats().GreedyOverrides != 1 {
		t.Errorf("overrides = %d, want 1", greedy.Stats().GreedyOverrides)
	}

	leading := newLBIC(t, 4, 2)
	got = leading.Grant(1, ready, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("leading grants = %v, want [0 3]", got)
	}
}

// Rotation cycles fall back to the leading request, bounding starvation.
func TestGreedyRotationServesOldest(t *testing.T) {
	ready := reqs(
		ports.Request{Addr: 0x1000}, // oldest, alone on its line
		ports.Request{Addr: 0x1100},
		ports.Request{Addr: 0x1108},
	)
	greedy := newGreedy(t, 4, 2)
	got := greedy.Grant(0, ready, nil) // cycle 0: rotation cycle
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("rotation grants = %v, want the oldest first", got)
	}
}

// Greedy never grants fewer requests than leading on the same ready set.
func TestGreedyNeverWorseSingleCycle(t *testing.T) {
	patterns := [][]ports.Request{
		reqs(ports.Request{Addr: 0x1000}, ports.Request{Addr: 0x1100}, ports.Request{Addr: 0x1108}),
		reqs(ports.Request{Addr: 0x1000}, ports.Request{Addr: 0x1008}),
		reqs(ports.Request{Addr: 0x1000}),
	}
	for _, p := range patterns {
		g := newGreedy(t, 4, 2).Grant(1, append([]ports.Request(nil), p...), nil)
		l := newLBIC(t, 4, 2).Grant(1, append([]ports.Request(nil), p...), nil)
		if len(g) < len(l) {
			t.Errorf("greedy granted %d < leading %d on %v", len(g), len(l), p)
		}
	}
}

// Group sizes cap at LinePorts when scoring: a 4-request group confers no
// more priority than a 2-request group on an N=2 buffer.
func TestGreedyGroupSizeCapsAtN(t *testing.T) {
	ready := reqs(
		ports.Request{Addr: 0x1100}, // line A of bank 0: first (oldest)
		ports.Request{Addr: 0x1108}, // line A: group of 2 (= N)
		ports.Request{Addr: 0x1200}, // line B of bank 0
		ports.Request{Addr: 0x1208},
		ports.Request{Addr: 0x1210},
		ports.Request{Addr: 0x1218}, // line B: group of 4, caps at 2
	)
	a := newGreedy(t, 4, 2)
	got := a.Grant(1, ready, nil)
	// Tie at capped size 2: the older line A must win.
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("grants = %v, want line A's pair", got)
	}
	if a.Stats().GreedyOverrides != 0 {
		t.Error("capped tie must not count as an override")
	}
}
