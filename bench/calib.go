package main

import "time"

// The box this benchmark was sized on changes speed by a quarter from one
// minute to the next, for everything that runs on it (README, "Noise
// floor"). A raw time therefore says as much about the minute it was taken
// in as about the program. Query times are measured next to a reference
// instead: a fixed piece of work of the kind the program does, written here,
// calling no code of the repository, run every few milliseconds between the
// timed operations. The reported time is
//
//	measured time x (nominalSweepUs / what the reference cost just then)
//
// that is, the time the operation would have taken on a box on which the
// reference costs its nominal value, which is what it costs on the sizing
// box on a usual day, so the numbers read as microseconds there. Set-up
// times are reported as measured: a burst of the reference on either side
// of a set-up of seconds followed it worse than nothing.
//
// The reference is one Dijkstra sweep over a synthetic 64 x 64 grid with a
// heap of its own: heap operations and dependent loads, under half a
// millisecond. It is that short so that it can run often without taking a
// core from the server for long; a sweep over 40 000 vertices, 6 ms, every
// 40 ms became the tail it was meant to correct.
const nominalSweepUs = 420.0

// refKernel is the reference.
type refKernel struct {
	weight []int64 // four arcs per vertex: east, west, south, north
	dist   []int64
	pq     oracleHeap
}

const refSide = 64

func newRefKernel() *refKernel {
	n := refSide * refSide
	k := &refKernel{weight: make([]int64, 4*n), dist: make([]int64, n)}
	x := uint64(88172645463325252) // xorshift64; any constant would do
	for i := range k.weight {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.weight[i] = int64(x%1000) + 1
	}
	return k
}

// refSink keeps the compiler from discarding a sweep.
var refSink int64

// sweep settles every vertex of the grid from one corner.
func (k *refKernel) sweep() {
	const far = int64(1) << 60
	const side = refSide
	for i := range k.dist {
		k.dist[i] = far
	}
	k.pq = k.pq[:0]
	k.dist[0] = 0
	k.pq.push(oracleItem{0, 0})
	for len(k.pq) > 0 {
		it := k.pq.pop()
		v := int(it.v)
		if it.d > k.dist[v] {
			continue
		}
		x, y := v%side, v/side
		relax := func(ok bool, u, arc int) {
			if !ok {
				return
			}
			if nd := it.d + k.weight[4*v+arc]; nd < k.dist[u] {
				k.dist[u] = nd
				k.pq.push(oracleItem{nd, int32(u)})
			}
		}
		relax(x+1 < side, v+1, 0)
		relax(x > 0, v-1, 1)
		relax(y+1 < side, v+side, 2)
		relax(y > 0, v-side, 3)
	}
	refSink += k.dist[len(k.dist)-1]
}

// timedSweep runs one sweep and returns how long it took.
func (k *refKernel) timedSweep() time.Duration {
	start := time.Now()
	k.sweep()
	return time.Since(start)
}
