package cpu

import (
	"context"
	"fmt"
)

// LanePos is the extra contract a stream must satisfy to drive a lane under
// RunLanes: the scheduler reads Pos to keep all lanes inside one shared
// decode window, and Close releases a finished lane's hold on that window
// (see tracecache.SharedCursor / LaneReader).
type LanePos interface {
	Pos() uint64
	Close()
}

// LaneChunk is the burst length of the lane scheduler, in instructions:
// each lane steps until its stream position reaches the current chunk
// boundary before the next lane runs. Chunked bursts keep the lanes within
// one window of the shared cursor (bounding decoded-record reuse distance)
// while leaving each lane a long run of consecutive cycles over hot,
// lane-private state between switches. The value trades those two against
// each other: 16K instructions per burst measured fastest across lane
// widths 2..10 on the full table sweep — short bursts (4K) pay a
// measurable cold-state penalty re-walking RUU and cache-array metadata
// every switch, while longer bursts only grow the shared ring.
const LaneChunk = 16384

// RunLanes steps K independent cores to completion: it is the simulator's
// one stepping loop, and Core.RunContext is its K=1 case. With K >= 2 every
// core must have been constructed over a stream implementing LanePos, with
// all such streams reading one tracecache.SharedCursor; the scheduler
// advances the lane frontier one LaneChunk at a time so the cursor decodes
// each dynamic instruction once and every lane consumes it while it is still
// resident. A single core may read any stream and runs without pausing.
//
// Each lane steps, idle-skips, trips its watchdog and honors cancellation
// exactly as it would alone, so per-lane Stats are bit-identical to a run of
// the same configuration at K=1. Errors are per-lane: errs[i] is nil when
// lane i completed, its failure otherwise. Cancellation of ctx fails every
// unfinished lane with the same cancellation error.
func RunLanes(ctx context.Context, cores []*Core) []error {
	errs := make([]error, len(cores))
	streams := make([]LanePos, len(cores))
	chunked := len(cores) > 1
	for i, c := range cores {
		s, ok := c.stream.(LanePos)
		if !ok {
			if chunked {
				for j := range errs {
					errs[j] = fmt.Errorf("cpu: lane %d stream %T does not implement LanePos", i, c.stream)
				}
				return errs
			}
			s = soloLane{}
		}
		streams[i] = s
	}
	live := len(cores)
	var target uint64
	countdown := uint64(0)
	for live > 0 {
		target += LaneChunk
		for i, c := range cores {
			if streams[i] == nil {
				continue // lane already settled
			}
			for !c.Done() {
				// A lane that is no longer fetching (budget reached, or
				// stream end) drains to completion now — it takes nothing
				// more from the cursor, so there is no reason to keep its
				// in-flight state live across further rounds.
				if chunked && !c.fetchExhausted() && streams[i].Pos() >= target {
					break
				}
				if countdown == 0 {
					if err := ctx.Err(); err != nil {
						cancelLanes(cores, streams, errs, err)
						return errs
					}
					countdown = ctxCheckInterval
				}
				countdown--
				if err := c.Step(); err != nil {
					errs[i] = err
					break
				}
				if n := c.idleCycles(); n > 0 {
					c.skipIdle(n)
				}
			}
			if errs[i] != nil || c.Done() {
				streams[i].Close()
				streams[i] = nil
				live--
			}
		}
	}
	return errs
}

// soloLane stands in for the LanePos of a single core reading a plain
// stream: a lone lane never pauses, so its position is never consulted.
type soloLane struct{}

func (soloLane) Pos() uint64 { return 0 }
func (soloLane) Close()      {}

// cancelLanes fails every still-running lane with the cancellation error,
// carrying that lane's own progress coordinates.
func cancelLanes(cores []*Core, streams []LanePos, errs []error, cause error) {
	for i, c := range cores {
		if streams[i] == nil {
			continue
		}
		errs[i] = fmt.Errorf("cpu: run canceled at cycle %d (committed %d of %d dispatched): %w",
			c.now, c.stats.Committed, c.stats.Dispatched, cause)
		streams[i].Close()
		streams[i] = nil
	}
}
