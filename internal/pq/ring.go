package pq

import "math/bits"

// Ring is a monotone bucket queue (Dial 1969): one bucket per key in [base,
// base+span), base the last key popped, each an intrusive doubly-linked
// list, and a bitmap of the non-empty ones. Pop moves cur, the smallest
// key, on to the next non-empty bucket, so Min is two loads.
//
// Monotone: no key pushed may be negative or below the last key Min or Pop
// returned since the ring was made or reset. Make one with NewRing.
type Ring struct {
	head      []int32  // head[b]: the first id of bucket b, while bit b of occ is set
	occ       []uint64 // bit b: bucket b is non-empty
	link      []link   // per id
	base, cur int64    // cur: the smallest bucket key, while inB > 0
	n, inB    int      // ids queued, and those in buckets
	over      []entry
	overMin   int64 // at most the smallest key in over
}

// link is one id's place: prev is the id before it in its bucket,
// notQueued, overflowed, or headOf(b) when it heads bucket b; next is the
// id after it (-1 at the tail), or its index in over.
type link struct{ next, prev int32 }

const notQueued, overflowed = -1, -2

func headOf(b int) int32 { return int32(-3 - b) }

// NewRing returns a ring for ids in [0, capacity) whose keys grow by at
// most step from the last one popped: its span is the next power of two
// above step, at least 64; past 2^16 the overflow list takes the rest.
func NewRing(capacity int, step int64) *Ring {
	nb := 64
	for int64(nb) <= step && nb < 1<<16 {
		nb *= 2
	}
	r := &Ring{head: make([]int32, nb), occ: make([]uint64, nb/64), link: make([]link, capacity), overMin: 1<<63 - 1}
	for i := range r.link {
		r.link[i].prev = notQueued
	}
	return r
}

// Empty reports whether the ring holds no ids.
func (r *Ring) Empty() bool { return r.n == 0 }

// Contains reports whether id is queued.
func (r *Ring) Contains(id int32) bool { return r.link[id].prev != notQueued }

// reset empties the ring but leaves the links of the ids it held stale, so
// afterwards Contains and Decrease may only be asked about ids pushed
// since: RingSearch knows them from its labels.
func (r *Ring) reset() {
	clear(r.occ)
	r.over, r.overMin, r.base, r.n, r.inB = r.over[:0], 1<<63-1, 0, 0, 0
}

// Push queues id, which is not queued, with key.
func (r *Ring) Push(id int32, key int64) {
	r.n++
	r.insert(id, key)
}

// Decrease lowers the key of the queued id to key, at the head of its new
// bucket.
func (r *Ring) Decrease(id int32, key int64) {
	r.unlink(id)
	r.insert(id, key)
}

func (r *Ring) insert(id int32, key int64) {
	if key-r.base >= int64(len(r.head)) {
		r.overflow(id, key)
		return
	}
	if r.inB == 0 || key < r.cur {
		r.cur = key
	}
	r.inB++
	b := int(key) & (len(r.head) - 1)
	h, w, bit := int32(-1), &r.occ[b>>6], uint64(1)<<(b&63)
	if *w&bit != 0 {
		h = r.head[b]
		r.link[h].prev = id
	}
	*w |= bit
	r.link[id], r.head[b] = link{h, headOf(b)}, id
}

// overflow is kept out of line so that insert needs a small frame.
//
//go:noinline
func (r *Ring) overflow(id int32, key int64) {
	r.link[id] = link{int32(len(r.over)), overflowed}
	r.over = append(r.over, entry{key, id})
	r.overMin = min(r.overMin, key)
}

func (r *Ring) unlink(id int32) {
	l := r.link[id]
	if l.prev == overflowed {
		last := r.over[len(r.over)-1]
		r.over[l.next], r.link[last.id].next = last, l.next
		r.over = r.over[:len(r.over)-1]
		return
	}
	r.inB--
	if l.next >= 0 {
		r.link[l.next].prev = l.prev
	}
	if l.prev >= 0 {
		r.link[l.prev].next = l.next
	} else if b := int(-3 - l.prev); l.next >= 0 {
		r.head[b] = l.next
	} else {
		r.occ[b>>6] &^= 1 << (b & 63)
	}
}

// Min returns the id and key Pop would return. The ring must not be empty.
func (r *Ring) Min() (id int32, key int64) {
	if r.inB == 0 {
		r.spill()
	}
	return r.head[int(r.cur)&(len(r.head)-1)], r.cur
}

// Pop removes and returns the id heading the smallest key's bucket. The
// ring must not be empty.
func (r *Ring) Pop() (id int32, key int64) {
	if r.inB == 0 {
		r.spill()
	}
	key = r.cur
	b := int(key) & (len(r.head) - 1)
	id = r.head[b]
	nx := r.link[id].next
	r.link[id].prev = notQueued
	r.base, r.n, r.inB = key, r.n-1, r.inB-1
	if r.head[b] = nx; nx >= 0 {
		r.link[nx].prev = headOf(b)
	} else if r.occ[b>>6] &^= 1 << (b & 63); r.inB > 0 {
		r.cur = key + int64((r.next(b)-b)&(len(r.head)-1))
	}
	if r.overMin-key < int64(len(r.head)) {
		r.rebucket()
	}
	return id, key
}

// next returns the first non-empty bucket after b around the ring, b's own
// word last: every bucket key is in [base, base+span), and base is b's.
func (r *Ring) next(b int) int {
	if x := r.occ[b>>6] >> (b & 63); x != 0 {
		return b + bits.TrailingZeros64(x)
	}
	for w := b >> 6; ; {
		if w = (w + 1) & (len(r.occ) - 1); r.occ[w] != 0 {
			return w*64 + bits.TrailingZeros64(r.occ[w])
		}
	}
}

// spill starts the buckets again at the smallest overflow key once they
// have run empty: the next key is a span or more beyond the last popped.
func (r *Ring) spill() {
	r.base = r.over[0].key
	for _, e := range r.over {
		r.base = min(r.base, e.key)
	}
	r.rebucket()
}

// rebucket moves the overflow keys less than span ahead of base into their
// buckets, in overflow order.
func (r *Ring) rebucket() {
	over := r.over
	r.over, r.overMin = r.over[:0], 1<<63-1
	for _, e := range over {
		r.insert(e.id, e.key)
	}
}
