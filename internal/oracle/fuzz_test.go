package oracle

import (
	"testing"

	"lbic/internal/core"
	"lbic/internal/ports"
)

// The fuzz targets synthesize random ready-sets from raw bytes and replay
// them through the port organizations under the grant validator, checking
// the properties no fixed scenario pins down: no starvation, no illegal
// grant set, drain-cycle ordering between organizations, and FIFO store
// queues. Each target also runs its seed corpus as a regular test.

const fuzzLineSize = 32

// decodeRefs turns two bytes per request into an age-ordered ready list
// over a 2KB region (64 lines of 32 bytes): byte 0 picks an 8-byte-aligned
// address, byte 1's low bit marks a store.
func decodeRefs(data []byte, maxRefs int) []ports.Request {
	refs := make([]ports.Request, 0, maxRefs)
	for i := 0; i+1 < len(data) && len(refs) < maxRefs; i += 2 {
		refs = append(refs, ports.Request{
			Seq:   uint64(len(refs) + 1),
			Addr:  uint64(data[i]) * 8,
			Store: data[i+1]&1 == 1,
		})
	}
	return refs
}

// drainAll replays refs through arb, validating every cycle's grant set,
// until all are granted; it fails the test on starvation and returns the
// grant cycles consumed.
func drainAll(t *testing.T, arb ports.Arbiter, refs []ports.Request) int {
	t.Helper()
	v := NewGrantValidator(arb)
	qm := newQueueMonitor(arb)
	ready := append([]ports.Request(nil), refs...)
	limit := 10*len(ready) + 64
	cycles := 0
	var dst []int
	for len(ready) > 0 {
		if cycles >= limit {
			t.Fatalf("%s starved: %d requests still ready after %d cycles", arb.Name(), len(ready), cycles)
		}
		dst = arb.Grant(uint64(cycles), ready, dst[:0])
		if err := v.Validate(uint64(cycles), ready, dst); err != nil {
			t.Fatal(err)
		}
		if qm != nil {
			if err := qm.check(uint64(cycles)); err != nil {
				t.Fatal(err)
			}
		}
		for k := len(dst) - 1; k >= 0; k-- {
			i := dst[k]
			ready = append(ready[:i], ready[i+1:]...)
		}
		cycles++
	}
	return cycles
}

// queueDepthLeft returns the longest queue of a queue-backed arbiter (store
// queues, or the coded organization's update queues), or 0.
func queueDepthLeft(arb ports.Arbiter) int {
	longest := 0
	if a, ok := arb.(*ports.Banks); ok {
		for q := 0; q < a.Queues(); q++ {
			longest = max(longest, a.QueueLen(q))
		}
	}
	return longest
}

// flushQueues runs idle grant cycles until every queue is empty; queues
// drain in parallel, so depth+2 cycles must always suffice.
func flushQueues(t *testing.T, arb ports.Arbiter, depth, startCycle int) {
	t.Helper()
	qm := newQueueMonitor(arb)
	var dst []int
	for i := 0; queueDepthLeft(arb) > 0; i++ {
		if i > depth+2 {
			t.Fatalf("%s store queues not empty after %d idle cycles (deepest %d)",
				arb.Name(), i, queueDepthLeft(arb))
		}
		dst = arb.Grant(uint64(startCycle+i), nil, dst[:0])
		if len(dst) != 0 {
			t.Fatalf("%s granted %v with no ready requests", arb.Name(), dst)
		}
		if qm != nil {
			if err := qm.check(uint64(startCycle + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FuzzArbiterGrant replays a random ready-set through the whole taxonomy:
// every organization must satisfy its grant validator every cycle, starve
// nothing, flush its store queues, and drain no faster than ideal
// multi-porting at its own peak width. Ideal drains in exactly ceil(n/P)
// cycles and the virtual multi-port must match it.
func FuzzArbiterGrant(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})            // same-line load burst
	f.Add([]byte{0, 1, 0, 1, 4, 1, 8, 1})            // same-line store burst
	f.Add([]byte{0, 0, 32, 0, 64, 0, 96, 0, 128, 0}) // spread across lines
	f.Add([]byte{96, 1, 84, 0, 85, 0, 97, 1, 12, 0}) // Figure 4c-like mix
	f.Fuzz(func(t *testing.T, data []byte) {
		refs := decodeRefs(data, 48)
		if len(refs) == 0 {
			t.Skip()
		}
		factories := []func() (ports.Arbiter, error){
			func() (ports.Arbiter, error) { return ports.NewIdeal(4) },
			func() (ports.Arbiter, error) { return ports.NewVirtual(4) },
			func() (ports.Arbiter, error) { return ports.NewReplicated(4) },
			func() (ports.Arbiter, error) { return ports.NewBankedSelector(4, fuzzLineSize, ports.BitSelect) },
			func() (ports.Arbiter, error) { return ports.NewBankedSQ(4, fuzzLineSize, 2) },
			func() (ports.Arbiter, error) { return ports.NewMultiPortedBanks(2, 2, fuzzLineSize) },
			func() (ports.Arbiter, error) {
				return core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: fuzzLineSize, StoreQueueDepth: 1})
			},
			func() (ports.Arbiter, error) {
				return core.New(core.Config{Banks: 2, LinePorts: 4, LineSize: fuzzLineSize, Policy: core.PolicyGreedy})
			},
			func() (ports.Arbiter, error) {
				return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 1, LineSize: fuzzLineSize})
			},
			func() (ports.Arbiter, error) {
				return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 2, LineSize: fuzzLineSize,
					UpdateQueueDepth: 1, Speculative: true})
			},
			func() (ports.Arbiter, error) {
				return ports.NewCoded(ports.CodedConfig{Banks: 4, ParityBanks: 2, LineSize: fuzzLineSize, LinePorts: 2})
			},
			func() (ports.Arbiter, error) {
				return ports.NewCoded(ports.CodedConfig{Banks: 8, ParityBanks: 2, LineSize: fuzzLineSize,
					LinePorts: 4, Speculative: true})
			},
		}
		idealCyc := 0
		for i, mk := range factories {
			arb, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			cyc := drainAll(t, arb, refs)
			flushQueues(t, arb, ports.DefaultStoreQueueDepth, cyc)
			if lower := ceilDiv(len(refs), arb.PeakWidth()); cyc < lower {
				t.Fatalf("%s drained %d requests in %d cycles, below its bandwidth bound %d",
					arb.Name(), len(refs), cyc, lower)
			}
			switch i {
			case 0:
				idealCyc = cyc
				if want := ceilDiv(len(refs), 4); cyc != want {
					t.Fatalf("ideal-4 drained %d requests in %d cycles, want exactly %d", len(refs), cyc, want)
				}
			case 1:
				if cyc != idealCyc {
					t.Fatalf("virt-4 drained in %d cycles, ideal-4 in %d — must be identical", cyc, idealCyc)
				}
			}
		}
	})
}

// FuzzCombining concentrates random references on 8 lines of a 4-bank cache
// and checks the paper's central ordering: a leading-policy LBIC never
// drains slower than the traditional banked cache (combining only adds
// bandwidth) and never faster than ideal multi-porting at its peak width.
// Every granted request is either a leading access or a combine.
func FuzzCombining(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24})          // one line, four offsets
	f.Add([]byte{0, 32, 64, 96})         // four lines, four banks
	f.Add([]byte{64, 72, 64, 72, 80})    // repeated same-line loads
	f.Add([]byte{192, 200, 208, 216, 0}) // store bits set on one line
	f.Fuzz(func(t *testing.T, data []byte) {
		refs := make([]ports.Request, 0, 48)
		for _, b := range data {
			if len(refs) == cap(refs) {
				break
			}
			line := uint64(b & 7)
			offset := uint64((b>>3)&3) * 8
			refs = append(refs, ports.Request{
				Seq:   uint64(len(refs) + 1),
				Addr:  line*fuzzLineSize + offset,
				Store: b&0x40 != 0,
			})
		}
		if len(refs) == 0 {
			t.Skip()
		}
		lbic, err := core.New(core.Config{Banks: 4, LinePorts: 2, LineSize: fuzzLineSize})
		if err != nil {
			t.Fatal(err)
		}
		banked, err := ports.NewBankedSelector(4, fuzzLineSize, ports.BitSelect)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := ports.NewIdeal(lbic.PeakWidth())
		if err != nil {
			t.Fatal(err)
		}
		cycLBIC := drainAll(t, lbic, refs)
		flushQueues(t, lbic, ports.DefaultStoreQueueDepth, cycLBIC)
		cycBank := drainAll(t, banked, refs)
		cycIdeal := drainAll(t, ideal, refs)
		if cycLBIC > cycBank {
			t.Fatalf("lbic-4x2 drained in %d cycles, banked in %d — combining may never lose cycles", cycLBIC, cycBank)
		}
		if cycLBIC < cycIdeal {
			t.Fatalf("lbic-4x2 drained in %d cycles, beating ideal-%d's %d", cycLBIC, lbic.PeakWidth(), cycIdeal)
		}
		st := lbic.Stats()
		if st.Leading+st.Combined != uint64(len(refs)) {
			t.Fatalf("leading %d + combined %d grants != %d requests", st.Leading, st.Combined, len(refs))
		}
	})
}

// FuzzStoreQueue hammers the three queue-backed organizations (the LBIC,
// banks with store queues, coded banks) with store-heavy reference sets at
// randomized queue depths: queues must evolve FIFO every cycle (checked
// inside drainAll), never exceed capacity, drain fully on idle cycles, and
// starve nothing.
func FuzzStoreQueue(f *testing.F) {
	f.Add([]byte{1, 0xC0, 0xC4, 0xC8, 0xE0, 0xE4})       // store run on two lines
	f.Add([]byte{2, 0xC0, 0x40, 0xC0, 0x40, 0xC0, 0x40}) // load/store interleave, one line
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // depth-1 queue saturation
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		depth := int(data[0]&3) + 1
		refs := make([]ports.Request, 0, 48)
		for _, b := range data[1:] {
			if len(refs) == cap(refs) {
				break
			}
			line := uint64(b & 3)
			offset := uint64((b>>2)&3) * 8
			refs = append(refs, ports.Request{
				Seq:   uint64(len(refs) + 1),
				Addr:  line*fuzzLineSize + offset,
				Store: b&0xC0 != 0, // three quarters of the encodings are stores
			})
		}
		if len(refs) == 0 {
			t.Skip()
		}
		lbic, err := core.New(core.Config{Banks: 2, LinePorts: 2, LineSize: fuzzLineSize, StoreQueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		bsq, err := ports.NewBankedSQ(2, fuzzLineSize, depth)
		if err != nil {
			t.Fatal(err)
		}
		coded, err := ports.NewCoded(ports.CodedConfig{Banks: 2, ParityBanks: 1, LineSize: fuzzLineSize,
			UpdateQueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		for _, arb := range []ports.Arbiter{lbic, bsq, coded} {
			cyc := drainAll(t, arb, refs)
			flushQueues(t, arb, depth, cyc)
		}
	})
}
