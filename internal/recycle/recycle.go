// Package recycle hands a run's large buffers on to the next run.
//
// Every run builds its machine at sizes its configuration sets — the cache
// tag arrays, the core's window structures, a lane batch's decode ring —
// uses it for the length of the run, and is done with it once the results
// are assembled. A Slices pool per buffer role lets the owner return those
// buffers at that point, so the next run of the same shape takes them
// instead of fresh heap memory: the allocation, the page faults of new
// memory and the collections they trigger leave the per-run cost. The pools
// are sync.Pools, so the garbage collector still empties them and storage
// no later run asks for is reclaimed.
package recycle

import "sync"

// Slices recycles the backing arrays of one buffer role. It keeps one
// sync.Pool per capacity, so a Make takes only a buffer of exactly the
// length it asks for: configurations of different sizes (the ablations vary
// cache geometry and LSQ size) never trade buffers, and one role may serve
// several sizes at once (an L1 and an L2 tag array). The zero value is ready
// to use and safe for concurrent use.
type Slices[T any] struct {
	byCap sync.Map // int -> *sync.Pool of *[]T
	// boxes holds emptied *[]T: Make returns the box its buffer came in, and
	// Put stores its buffer in one, so a warm Make and Put allocate nothing.
	boxes sync.Pool
}

// Make returns a slice of n zero values, exactly as make([]T, n) would: a
// returned buffer of capacity n, cleared, when one is pooled, else a new
// one.
func (s *Slices[T]) Make(n int) []T {
	p, ok := s.byCap.Load(n)
	if !ok {
		s.byCap.LoadOrStore(n, new(sync.Pool))
		return make([]T, n)
	}
	b, _ := p.(*sync.Pool).Get().(*[]T)
	if b == nil {
		return make([]T, n)
	}
	buf := *b
	*b = nil
	s.boxes.Put(b)
	clear(buf)
	return buf
}

// Put hands buf's backing array back for a later Make of its capacity.
// Nothing may use buf, or any slice sharing its array, afterwards. A buffer
// of a capacity no Make asked for, such as one grown by append, is left to
// the garbage collector.
func (s *Slices[T]) Put(buf []T) {
	if p, ok := s.byCap.Load(cap(buf)); ok {
		b, _ := s.boxes.Get().(*[]T)
		if b == nil {
			b = new([]T)
		}
		*b = buf[:cap(buf)]
		p.(*sync.Pool).Put(b)
	}
}
