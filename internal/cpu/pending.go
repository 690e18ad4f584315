package cpu

import (
	"lbic/internal/ports"
	"lbic/internal/recycle"
)

// pendWin holds the loads waiting for a cache port: their port requests in
// ascending seq order, ready to hand to the arbiter as they stand, and the
// RUU index of each in a parallel slice. The live run [lo, hi) sits inside a
// larger backing array so that both of its ends can move. Grants take mostly
// from the front and address generation adds mostly at the back, so an
// insert past the back appends and a remove of the front pops, neither
// searching; any other insert or remove searches and shifts whichever side
// of its position is shorter. When the side that must grow reaches the edge
// of the array, the run is first moved back to the middle; the array grows
// only when the run fills it.
type pendWin struct {
	reqs   []ports.Request
	idx    []int32
	lo, hi int
}

// Storage pools for the window's arrays (see recycle).
var (
	pendReqPool recycle.Slices[ports.Request]
	pendIdxPool recycle.Slices[int32]
)

// init sizes the window for up to capacity loads with the run centred.
func (w *pendWin) init(capacity int) {
	n := 2*capacity + 2
	w.reqs = pendReqPool.Make(n)
	w.idx = pendIdxPool.Make(n)
	w.lo, w.hi = n/2, n/2
}

// release hands the arrays back for a later init.
func (w *pendWin) release() {
	pendReqPool.Put(w.reqs)
	pendIdxPool.Put(w.idx)
	w.reqs, w.idx = nil, nil
}

// len returns the number of pending loads.
func (w *pendWin) len() int { return w.hi - w.lo }

// front returns the oldest min(n, len) requests and their RUU indexes. The
// slices alias the window and are valid only until its next change.
func (w *pendWin) front(n int) ([]ports.Request, []int32) {
	if n > w.hi-w.lo {
		n = w.hi - w.lo
	}
	return w.reqs[w.lo : w.lo+n], w.idx[w.lo : w.lo+n]
}

// search returns the position of the first request with Seq >= seq.
func (w *pendWin) search(seq uint64) int {
	lo, hi := w.lo, w.hi
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if w.reqs[m].Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert adds the request of the load in RUU slot idx in seq order.
func (w *pendWin) insert(r ports.Request, idx int32) {
	if w.lo == w.hi || r.Seq > w.reqs[w.hi-1].Seq {
		if w.hi == len(w.reqs) {
			w.recentre()
		}
		w.reqs[w.hi], w.idx[w.hi] = r, idx
		w.hi++
		return
	}
	p := w.search(r.Seq)
	left := p-w.lo < w.hi-p
	if left && w.lo == 0 || !left && w.hi == len(w.reqs) {
		w.recentre()
		p = w.search(r.Seq)
	}
	if left {
		copy(w.reqs[w.lo-1:p-1], w.reqs[w.lo:p])
		copy(w.idx[w.lo-1:p-1], w.idx[w.lo:p])
		w.lo--
		p--
	} else {
		copy(w.reqs[p+1:w.hi+1], w.reqs[p:w.hi])
		copy(w.idx[p+1:w.hi+1], w.idx[p:w.hi])
		w.hi++
	}
	w.reqs[p], w.idx[p] = r, idx
}

// remove deletes the request with the given seq, if it is pending.
func (w *pendWin) remove(seq uint64) {
	if w.lo < w.hi && w.reqs[w.lo].Seq == seq {
		w.lo++
		return
	}
	p := w.search(seq)
	if p == w.hi || w.reqs[p].Seq != seq {
		return
	}
	if p-w.lo < w.hi-1-p {
		copy(w.reqs[w.lo+1:p+1], w.reqs[w.lo:p])
		copy(w.idx[w.lo+1:p+1], w.idx[w.lo:p])
		w.lo++
	} else {
		copy(w.reqs[p:w.hi-1], w.reqs[p+1:w.hi])
		copy(w.idx[p:w.hi-1], w.idx[p+1:w.hi])
		w.hi--
	}
}

// recentre moves the run to the middle of the array, leaving room at both
// ends, and doubles the array first if the run would not leave any.
func (w *pendWin) recentre() {
	n := w.hi - w.lo
	reqs, idx := w.reqs, w.idx
	if n+2 > len(reqs) {
		reqs = make([]ports.Request, 2*len(reqs))
		idx = make([]int32, len(reqs))
	}
	lo := (len(reqs) - n) / 2
	copy(reqs[lo:lo+n], w.reqs[w.lo:w.hi])
	copy(idx[lo:lo+n], w.idx[w.lo:w.hi])
	w.reqs, w.idx, w.lo, w.hi = reqs, idx, lo, lo+n
}
