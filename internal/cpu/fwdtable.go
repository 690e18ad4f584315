package cpu

import "lbic/internal/recycle"

// fwdTable replaces the old map[uint64][]fwdRef store-forwarding index with a
// chained hash table over pooled nodes, sized once at New to the maximum
// number of live forwarding refs — every store with a generated address is
// in the LSQ or the store buffer, and each contributes at most two 8-byte
// granules — so the per-cycle hot path never allocates and never hands
// garbage to the collector.
type fwdNode struct {
	ref  fwdRef
	g    uint64 // granule key
	next int32  // bucket chain, -1 terminates
}

type fwdTable struct {
	buckets []int32 // head node index per bucket, -1 empty
	mask    uint64
	nodes   []fwdNode
	free    int32 // head of the free list threaded through nodes[].next
}

// Storage pools for the table's arrays (see recycle).
var (
	fwdBucketPool recycle.Slices[int32]
	fwdNodePool   recycle.Slices[fwdNode]
)

func (t *fwdTable) init(maxRefs int) {
	n := 1
	for n < 2*maxRefs {
		n <<= 1
	}
	t.buckets = fwdBucketPool.Make(n)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.mask = uint64(n - 1)
	t.nodes = fwdNodePool.Make(maxRefs)[:0]
	t.free = -1
}

// release hands the arrays back for a later init.
func (t *fwdTable) release() {
	fwdBucketPool.Put(t.buckets)
	fwdNodePool.Put(t.nodes)
	t.buckets, t.nodes = nil, nil
}

func (t *fwdTable) bucket(g uint64) *int32 {
	h := g * 0x9E3779B97F4A7C15
	return &t.buckets[(h^h>>29)&t.mask]
}

func (t *fwdTable) insert(g uint64, ref fwdRef) {
	var idx int32
	if t.free >= 0 {
		idx = t.free
		t.free = t.nodes[idx].next
	} else {
		// Beyond the sized capacity (cannot happen under the LSQ + store
		// buffer bound, but grow rather than corrupt if it ever does).
		t.nodes = append(t.nodes, fwdNode{})
		idx = int32(len(t.nodes) - 1)
	}
	b := t.bucket(g)
	t.nodes[idx] = fwdNode{ref: ref, g: g, next: *b}
	*b = idx
}

// remove unlinks the (g, seq) node, returning it to the free list.
func (t *fwdTable) remove(g uint64, seq uint64) {
	b := t.bucket(g)
	prev := int32(-1)
	for idx := *b; idx >= 0; {
		n := &t.nodes[idx]
		if n.g == g && n.ref.seq == seq {
			if prev < 0 {
				*b = n.next
			} else {
				t.nodes[prev].next = n.next
			}
			n.next = t.free
			t.free = idx
			return
		}
		prev = idx
		idx = n.next
	}
}

// retag updates the (g, seq) node's RUU linkage (used at commit, when a
// store's ref stops pointing into the RUU and starts pointing at its store
// buffer slot).
func (t *fwdTable) retag(g uint64, seq uint64, ruu int32) {
	for idx := *t.bucket(g); idx >= 0; idx = t.nodes[idx].next {
		n := &t.nodes[idx]
		if n.g == g && n.ref.seq == seq {
			n.ref.ruu = ruu
			return
		}
	}
}
