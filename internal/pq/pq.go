// Package pq holds the state every Dijkstra-style search in this repository
// runs on: two priority queues over dense int32 ids (vertex ids) with int64
// keys, and Search and RingSearch, each one paired with a generation-stamped
// Label per vertex and the settle count every searcher reports and polls.
//
// Which queue. Heap is an addressable binary min-heap for any keys; Ring is
// a monotone bucket queue for keys that grow by at most a known step from
// the last one popped. The three query searches over the road graph itself
// run on a RingSearch: bidirectional Dijkstra and arc flags with the largest
// arc weight as the step, ALT with twice it, since a landmark bound changes
// by at most the arc's weight across an arc. Everything else runs on a
// Search: the searches over the contraction hierarchy, whose shortcuts make
// the steps large; CH's contraction order, whose keys are negative; and
// dijkstra.Context, which the index builds run, whose tie order is part of
// the indexes' bytes.
//
// Layout. The heap is one array of 16-byte (key, id) entries in heap order
// plus an id -> position index, and sifts move a hole rather than swapping,
// so a level costs one entry write and one index write. A Label is 16 bytes
// too, {Dist, Parent, Gen}, so a relaxation reads and writes one cache line
// per vertex.
//
// Tie rule, an invariant: a sift stops as soon as the parent's key is <= the
// moving key, and moving down it takes the right child only when its key is
// strictly smaller than the left's. The pops of any sequence of operations,
// ties included, are therefore fixed (TestPopOrderDigest, and
// TestPopOrderDigestExtremeKeys over all of int64), and so are the paths
// every technique answers. down picks the child without a branch, adding
// b2i of that compare to the left index: the compare is a coin toss on a
// search's keys, so as a branch it mispredicts often. It is the same
// compare, so every heap holds what it held with the branch, ties and
// int64's extremes included. A 4-ary heap was not taken: it pops ties in
// another order, which moves every path digest, and on CA Q10 it was no
// faster than the branching binary heap (ns per settled vertex, two runs:
// ALT 293/305 -> 293/285, bidirectional Dijkstra 234/243 -> 237/254),
// while the branch-free pick took bidirectional Dijkstra from 155-160 to
// 110-114. The ring was: on CA Q10, bidirectional Dijkstra 2.37 -> 1.92 ms
// per query and ALT 0.35 -> 0.19 ms (fastest of 15 interleaved rounds, 200
// pairs).
//
// Ring. Ties pop last in, first out: a pushed or lowered id heads its
// bucket. A* settles fewer vertices so (package alt), Dijkstra the same
// ones. A key a span or more ahead waits in an overflow list, which only
// arcs heavier than the 2^16-bucket cap reach (TestRingOrderDigest,
// FuzzGraphSearchesAgree). Its links take 8 B per vertex where the heap's
// position index takes 4 B, and it queues no 16-byte entries: a CA
// Bidirectional (39 121 vertices, two sides) holds 626 KB of links against
// 313 KB of heap positions.
package pq

// entry is one heap slot.
type entry struct {
	key int64
	id  int32
}

// Heap is an addressable binary min-heap keyed by int64 priorities.
// The zero value is not usable; call New.
type Heap struct {
	e   []entry // heap order
	pos []int32 // pos[id] = index in e, or -1 when absent
}

// New returns a heap able to hold ids in [0, capacity).
func New(capacity int) *Heap {
	h := &Heap{pos: make([]int32, capacity)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of items currently on the heap.
func (h *Heap) Len() int { return len(h.e) }

// Empty reports whether the heap holds no items.
func (h *Heap) Empty() bool { return len(h.e) == 0 }

// Clear removes all items. It runs in time proportional to the number of
// items on the heap, not the capacity.
func (h *Heap) Clear() {
	for _, x := range h.e {
		h.pos[x.id] = -1
	}
	h.e = h.e[:0]
}

// Contains reports whether id is currently on the heap.
func (h *Heap) Contains(id int32) bool { return h.pos[id] >= 0 }

// Push inserts id with the given key, or decreases/increases its key if the
// id is already present.
func (h *Heap) Push(id int32, key int64) {
	if p := h.pos[id]; p >= 0 {
		if old := h.e[p].key; key < old {
			h.up(int(p), entry{key, id})
		} else if key > old {
			h.down(int(p), entry{key, id})
		}
		return
	}
	h.e = append(h.e, entry{})
	h.up(len(h.e)-1, entry{key, id})
}

// Min returns the id and key of the minimum item without removing it.
// It must only be called on a non-empty heap.
func (h *Heap) Min() (id int32, key int64) { return h.e[0].id, h.e[0].key }

// Pop removes and returns the id with the smallest key.
// It must only be called on a non-empty heap.
func (h *Heap) Pop() (id int32, key int64) {
	top := h.e[0]
	last := len(h.e) - 1
	x := h.e[last]
	h.e = h.e[:last]
	h.pos[top.id] = -1
	if last > 0 {
		h.down(0, x)
	}
	return top.id, top.key
}

// up places x, whose slot is the hole at i, by moving the hole toward the
// root past every parent with a larger key.
func (h *Heap) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.e[parent]
		if p.key <= x.key {
			break
		}
		h.e[i] = p
		h.pos[p.id] = int32(i)
		i = parent
	}
	h.e[i] = x
	h.pos[x.id] = int32(i)
}

// down places x, whose slot is the hole at i, by moving the hole toward the
// leaves past every smaller child.
func (h *Heap) down(i int, x entry) {
	n := len(h.e)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n {
			small += b2i(h.e[r].key < h.e[l].key)
		}
		c := h.e[small]
		if x.key <= c.key {
			break
		}
		h.e[i] = c
		h.pos[c.id] = int32(i)
		i = small
	}
	h.e[i] = x
	h.pos[x.id] = int32(i)
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
