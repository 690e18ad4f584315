package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"lbic/internal/ports"
)

// TestPendWinMatchesSortedSlice drives the pending-load window with random
// inserts and removes at its front, middle and back, and checks it against a
// plain sorted slice after every operation. A small initial capacity makes
// the run hit both ends of its array, so recentring and growth are exercised.
func TestPendWinMatchesSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w pendWin
		w.init(2)
		var ref []uint64
		present := map[uint64]bool{}
		front, back := uint64(1<<40), uint64(1<<40)+1
		recentres, grows := 0, 0
		for op := 0; op < 3000; op++ {
			lo, size := w.lo, len(w.reqs)
			var seq uint64
			insert := len(ref) == 0 || rng.Intn(100) < 52
			switch where := rng.Intn(3); {
			case insert && where == 0: // front
				seq, front = front, front-1
			case insert && where == 1: // back
				seq, back = back, back+1
			case insert: // middle: a fresh seq strictly inside the range
				for try := 0; try < 8 && seq == 0 && len(ref) >= 2 && ref[len(ref)-1]-ref[0] >= 2; try++ {
					s := ref[0] + 1 + uint64(rng.Int63n(int64(ref[len(ref)-1]-ref[0]-1)))
					if !present[s] {
						seq = s
					}
				}
				if seq == 0 { // no gap found; insert at the back
					seq, back = back, back+1
				}
			case where == 0:
				seq = ref[0]
			case where == 1:
				seq = ref[len(ref)-1]
			default:
				seq = ref[rng.Intn(len(ref))]
			}
			if insert {
				w.insert(ports.Request{Seq: seq, Addr: seq * 8}, int32(seq%1021))
				i, _ := slices.BinarySearch(ref, seq)
				ref = slices.Insert(ref, i, seq)
				present[seq] = true
			} else {
				w.remove(seq)
				w.remove(seq) // a second remove of the same seq is a no-op
				i, _ := slices.BinarySearch(ref, seq)
				ref = slices.Delete(ref, i, i+1)
				delete(present, seq)
			}
			if len(w.reqs) != size {
				grows++
			} else if d := w.lo - lo; d > 1 || d < -1 {
				recentres++
			}
			checkPendWin(t, seed, op, &w, ref)
		}
		if recentres == 0 || grows == 0 {
			t.Fatalf("seed %d: %d recentres, %d grows; the walk must exercise both", seed, recentres, grows)
		}
	}
}

func checkPendWin(t *testing.T, seed int64, op int, w *pendWin, ref []uint64) {
	t.Helper()
	if w.len() != len(ref) {
		t.Fatalf("seed %d op %d: window holds %d, want %d", seed, op, w.len(), len(ref))
	}
	for i, seq := range ref {
		r, idx := w.reqs[w.lo+i], w.idx[w.lo+i]
		if r.Seq != seq || r.Addr != seq*8 || idx != int32(seq%1021) {
			t.Fatalf("seed %d op %d: position %d holds seq %d addr %d idx %d, want seq %d",
				seed, op, i, r.Seq, r.Addr, idx, seq)
		}
	}
	n := len(ref) / 2
	reqs, idx := w.front(n)
	if len(reqs) != n || len(idx) != n || n > 0 && reqs[0].Seq != ref[0] {
		t.Fatalf("seed %d op %d: front(%d) returned %d requests", seed, op, n, len(reqs))
	}
	if reqs, _ := w.front(len(ref) + 5); len(reqs) != len(ref) {
		t.Fatalf("seed %d op %d: front past the end returned %d of %d", seed, op, len(reqs), len(ref))
	}
}

// TestPendWinEnds drives the window's search-free paths, in-order appends
// and front pops, to the edges of its array: appends that reach the end must
// recentre the run or grow the array, a front pop right after a recentre must
// leave the run intact, and a second remove of a popped seq is a no-op.
func TestPendWinEnds(t *testing.T) {
	var w pendWin
	w.init(2)
	var ref []uint64
	next := uint64(1)
	recentres, grows, popsAfterRecentre := 0, 0, 0
	for op := 0; op < 400; op++ {
		// Grow the run to 12, then hold it at 3 or 4 as a FIFO, so it drifts
		// to the end of the array again and again.
		lo, size := w.lo, len(w.reqs)
		w.insert(ports.Request{Seq: next, Addr: next * 8}, int32(next%1021))
		ref = append(ref, next)
		next++
		moved := w.lo != lo
		switch {
		case len(w.reqs) != size:
			grows++
		case moved:
			recentres++
		}
		checkPendWin(t, 0, op, &w, ref)
		for op >= 12 && len(ref) > 3 {
			w.remove(ref[0])
			w.remove(ref[0]) // a second remove of the same seq is a no-op
			ref = ref[1:]
			checkPendWin(t, 0, op, &w, ref)
			if moved {
				popsAfterRecentre++
				moved = false
			}
		}
	}
	if recentres == 0 || grows == 0 || popsAfterRecentre == 0 {
		t.Fatalf("%d recentres, %d grows, %d pops right after a recentre; the walk must exercise all three",
			recentres, grows, popsAfterRecentre)
	}
}
