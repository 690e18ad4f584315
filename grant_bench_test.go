package lbic

import (
	"context"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/ports"
)

// grantCall is one Arbiter.Grant call of a real run: its cycle and a copy of
// the ready set the core presented.
type grantCall struct {
	now   uint64
	ready []Request
}

// grantCapture wraps a registered kind's arbiter in a custom port, recording
// every Grant call while passing it through. It forwards quiescence, so the
// core fast-forwards exactly as it would over the bare arbiter.
type grantCapture struct {
	Arbiter
	calls []grantCall
}

func (c *grantCapture) Grant(now uint64, ready []Request, dst []int) []int {
	c.calls = append(c.calls, grantCall{now, append([]Request(nil), ready...)})
	return c.Arbiter.Grant(now, ready, dst)
}

func (c *grantCapture) Quiescent() bool {
	q, ok := c.Arbiter.(ports.Quiescer)
	return ok && q.Quiescent()
}

// grantInsts bounds the captured compress run: long enough to reach steady
// state, short enough that eight kinds' ready sets stay a few MiB.
const grantInsts = 20_000

// grantLegs lists BenchmarkGrant's configurations: per registered wire
// kind, the representative configuration its registry entry offers (its
// first axis entry, else its first sample), plus an "lbic-greedy" leg on the
// LBIC's greedy sample, so the §5.2 line-choice pass has its own price.
func grantLegs() (names []string, cfgs []PortConfig) {
	for _, k := range portOrgOrder {
		o := portOrgs[k]
		if !o.wire {
			continue
		}
		all := append(append([]PortConfig(nil), o.axis...), o.samples...)
		names, cfgs = append(names, o.token), append(cfgs, all[0])
		for _, p := range all {
			if p.Greedy {
				names, cfgs = append(names, o.token+"-greedy"), append(cfgs, p)
				break
			}
		}
	}
	return names, cfgs
}

// BenchmarkGrant prices one Arbiter.Grant call for every leg of grantLegs.
// The ready sets are those a real compress run presented, captured through
// CustomPort and replayed in order, cycling, into one fresh arbiter; grants
// must not allocate.
func BenchmarkGrant(b *testing.B) {
	prog, err := BuildBenchmark("compress")
	if err != nil {
		b.Fatal(err)
	}
	lineSize := cache.DefaultParams().L1.LineSize
	names, cfgs := grantLegs()
	for li, cfg := range cfgs {
		b.Run(names[li], func(b *testing.B) {
			capt := &grantCapture{}
			port := CustomPort("capture-"+cfg.Key(), func(lineSize int) (Arbiter, error) {
				arb, err := buildArbiter(cfg, lineSize)
				capt.Arbiter = arb
				return capt, err
			})
			run := DefaultConfig()
			run.Port, run.MaxInsts = port, grantInsts
			if _, err := Simulate(context.Background(), ProgramSource(prog), run); err != nil {
				b.Fatal(err)
			}
			arb, err := buildArbiter(cfg, lineSize)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int, 0, cfg.PeakWidth()+1)
			b.ReportAllocs()
			b.ResetTimer()
			// The call index wraps by comparison: a modulo here would put a
			// 64-bit division in every timed call.
			calls := capt.calls
			for i, j := 0, 0; i < b.N; i++ {
				dst = arb.Grant(calls[j].now, calls[j].ready, dst[:0])
				if j++; j == len(calls) {
					j = 0
				}
			}
		})
	}
}
