package main

import (
	"math/rand"
	"time"

	"roadnet"
	"roadnet/internal/pq"
)

// genericProbes times two layers every search goes through, on inputs that
// depend on nothing but constants: the priority queue and the searcher pool.
func genericProbes(res *result, idx roadnet.Index) {
	res.set("pq.push_pop_ns", pqPushPop())
	res.set("core.pool_get_put_ns", poolGetPut(idx))
}

// pqPushPop drives internal/pq through a fixed sequence of 2^20
// operations shaped like a Dijkstra run (pushes, key decreases, pops that
// keep the heap a few thousand deep) and returns nanoseconds per operation.
func pqPushPop() float64 {
	const ops, ids = 1 << 20, 1 << 16
	rng := rand.New(rand.NewSource(20120501)) // the paper's issue date; any constant would do
	type op struct {
		id  int32
		key int64
	}
	seq := make([]op, ops)
	for i := range seq {
		seq[i] = op{int32(rng.Intn(ids)), rng.Int63n(1 << 40)}
	}
	h := pq.New(ids)
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		h.Clear()
		start := time.Now()
		for i, o := range seq {
			// Two pushes to one pop until the heap is deep, then one to one.
			if i%3 == 2 || h.Len() > 4096 {
				if !h.Empty() {
					h.Pop()
					continue
				}
			}
			h.Push(o.id, o.key)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / ops
}

// poolGetPut returns the nanoseconds one Get/Put pair on a warm searcher
// pool costs: what every served request pays before it can search.
func poolGetPut(idx roadnet.Index) float64 {
	const n = 200000
	pool := roadnet.NewPool(idx)
	pool.Put(pool.Get())
	start := time.Now()
	for i := 0; i < n; i++ {
		pool.Put(pool.Get())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
