package main

import (
	"math"
	"testing"
)

// drifting returns n samples around ns whose level wanders by up to ±30%
// from round to round, as a busy host drifts.
func drifting(n int, ns float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ns * (1 + 0.3*math.Sin(float64(i)*1.7))
	}
	return xs
}

// scaled returns xs with each sample multiplied by f and by a ±1% wobble, so
// the pairs' ratios are not all equal.
func scaled(xs []float64, f float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * f * (1 + 0.01*math.Cos(float64(i)*2.3))
	}
	return ys
}

func TestIdenticalSamplesPass(t *testing.T) {
	base := drifting(20, 600)
	v := judge(base, append([]float64(nil), base...))
	if v.fail || v.ratio != 1 || v.lo != 1 || v.hi != 1 {
		t.Fatalf("identical samples: %+v, want ratio and interval 1 and a pass", v)
	}
}

func TestPairedShiftFails(t *testing.T) {
	base := drifting(20, 600)
	v := judge(base, scaled(base, 1+1.5*threshold))
	if !v.fail {
		t.Fatalf("a paired %.1f%% slowdown passed: %+v", 150*threshold, v)
	}
	if v.lo > v.ratio || v.ratio > v.hi {
		t.Fatalf("interval [%v, %v] does not hold the median ratio %v", v.lo, v.hi, v.ratio)
	}
}

func TestUnderFloorNeverFails(t *testing.T) {
	base := drifting(20, floorNs/2)
	v := judge(base, scaled(base, 1.5))
	if v.fail || !v.floor {
		t.Fatalf("a leg under the %v ns floor: %+v, want a pass under the floor", floorNs, v)
	}
	if v.lo <= 1+threshold {
		t.Fatalf("interval [%v, %v] should lie above %v; only the floor should pass it", v.lo, v.hi, 1+threshold)
	}
}

func TestVerdictIsDeterministic(t *testing.T) {
	base := drifting(20, 600)
	head := scaled(drifting(20, 620), 1)
	if a, b := judge(base, head), judge(base, head); a != b {
		t.Fatalf("same samples judged twice: %+v then %+v", a, b)
	}
}

func TestParse(t *testing.T) {
	out := []byte(`goos: linux
BenchmarkCoreStep 	  381882	       662.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkLaneStep/k1         	       4	  56606537 ns/op	   3.53 MB/s	   13864 B/op	      32 allocs/op
BenchmarkGrant/true         	37184996	         6.681 ns/op
PASS
`)
	want := []line{
		{"BenchmarkCoreStep", 662.3, 0},
		{"BenchmarkLaneStep/k1", 56606537, 32},
		{"BenchmarkGrant/true", 6.681, 0},
	}
	got := parse(out)
	if len(got) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
