package ports

// LineQueue is a FIFO of cache line numbers with a consumed-head index, so
// the per-cycle pop reuses the backing array instead of leaking its prefix
// the way a `q = q[1:]` re-slice does (that pattern forces a reallocation on
// every later append once the capacity window slides off). The zero value is
// an empty queue.
type LineQueue struct {
	buf  []uint64
	head int
}

// Len returns the number of queued lines.
func (q *LineQueue) Len() int { return len(q.buf) - q.head }

// Contains reports whether line is queued.
func (q *LineQueue) Contains(line uint64) bool {
	for _, l := range q.buf[q.head:] {
		if l == line {
			return true
		}
	}
	return false
}

// Push appends line to the back.
func (q *LineQueue) Push(line uint64) {
	q.buf = append(q.buf, line)
}

// Offer queues line unless it is queued already, where a store coalesces
// into its entry (the queues are write-combining buffers, as in the PA8000
// design the paper cites); a new line needs fewer than depth lines queued.
// It reports whether line is queued.
func (q *LineQueue) Offer(line uint64, depth int) bool {
	if q.Contains(line) {
		return true
	}
	if q.Len() >= depth {
		return false
	}
	q.Push(line)
	return true
}

// PopFront removes and returns the front line.
func (q *LineQueue) PopFront() uint64 {
	l := q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 32 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return l
}

// Lines appends the queued lines, front first, to dst and returns the
// extended slice.
func (q *LineQueue) Lines(dst []uint64) []uint64 {
	return append(dst, q.buf[q.head:]...)
}
