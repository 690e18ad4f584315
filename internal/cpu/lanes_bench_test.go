package cpu

import (
	"context"
	"fmt"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/ports"
	"lbic/internal/tracecache"
	"lbic/internal/workload"
)

// laneBudget is the per-lane instruction budget of one BenchmarkLaneStep op.
// It is fixed — independent of both b.N and K — so every lane width sees the
// same warmup fraction and the same per-lane run length, and ns/op divided
// by (K * laneBudget) is a fair per-lane-instruction cost across K.
const laneBudget = 200_000

// BenchmarkLaneStep measures stepping K identical machine configurations in
// lockstep off one shared decode cursor. One op is a complete K-lane batch
// run of laneBudget instructions per lane; SetBytes counts lane-instructions
// ("bytes" = instructions, as in BenchmarkSimulatorThroughput), so the MB/s
// column is lane-instruction throughput — rising with K as the shared zipf
// synthesis is decoded once per dynamic instruction instead of once per
// lane. k1 is the scalar reference.
func BenchmarkLaneStep(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(k) * laneBudget)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src, err := workload.GenParams{Kind: "zipf"}.Stream()
				if err != nil {
					b.Fatal(err)
				}
				cur := tracecache.NewSharedCursor(src, 2*LaneChunk)
				// A synthetic stream may be read ahead freely, exactly as
				// the batch simulation entry points configure it.
				cur.SetBatchFill(LaneChunk)
				cores := make([]*Core, k)
				for j := range cores {
					// A compact hierarchy geometry (8KB L1 / 64KB L2) keeps
					// the aggregate lane-private state host-cache-resident
					// at K=8, so the benchmark isolates the scheduling and
					// decode-sharing costs rather than the host machine's
					// LLC capacity.
					params := cache.DefaultParams()
					params.L1.Size = 8 << 10
					params.L2.Size = 64 << 10
					hier, err := cache.NewHierarchy(params)
					if err != nil {
						b.Fatal(err)
					}
					// Every lane runs the same port organization so the only
					// thing that changes across K is how many lanes share
					// each synthesized instruction.
					arb, err := ports.NewBankedSelector(4, 32, ports.BitSelect)
					if err != nil {
						b.Fatal(err)
					}
					cfg := DefaultConfig()
					cfg.MaxInsts = laneBudget
					cores[j], err = New(cur.NewLaneReader(), hier, arb, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, err := range RunLanes(context.Background(), cores) {
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for j, c := range cores {
					if got := c.Stats().Dispatched; got != laneBudget {
						b.Fatalf("lane %d dispatched %d instructions, want %d", j, got, laneBudget)
					}
				}
				b.StartTimer()
			}
		})
	}
}
