package silc

import (
	"context"
	"sync"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
)

// This file implements the SILC batch accelerator. The first-hop function
// is deterministic per (vertex, target), so for a fixed target t every walk
// toward t follows the unique first-hop tree into t: once some walk has
// passed through a vertex v, dist(v, t) is known, and every later walk
// reaching v can stop immediately. BatchDistance exploits this by answering
// the matrix target-by-target with a distance memo over the walked
// prefixes; sources whose shortest paths share suffixes (the common case on
// road networks, where routes funnel into arterials) pay for the shared
// hops only once instead of once per source.

// batchScratch is the recycled memo state of one BatchDistance call, a
// method of the shared Index that a Searcher only promotes, so the O(|V|)
// memo cannot live in either; pooling it keeps steady-state batches from
// allocating and zeroing 12 bytes per graph vertex on every request.
type batchScratch struct {
	memoDist []int64
	memoGen  []uint32
	gen      uint32
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch returns scratch covering n vertices. The generation
// counter survives recycling, so reused arrays need no zeroing.
func getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if len(sc.memoDist) < n {
		sc.memoDist = make([]int64, n)
		sc.memoGen = make([]uint32, n)
		sc.gen = 0
	}
	return sc
}

// BatchDistance computes the full sources×targets distance matrix:
// table[i][j] = dist(sources[i], targets[j]), graph.Infinity for
// unreachable pairs. Results are bit-identical to per-pair Distance calls:
// a memoized suffix distance is the sum of exactly the arc weights the
// per-pair walk would have accumulated. The walks poll ctx every
// cancel.Interval hops; on cancellation the partial matrix is discarded and
// ctx's error returned.
func (ix *Index) BatchDistance(ctx context.Context, sources, targets []graph.VertexID) ([][]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	table := make([][]int64, len(sources))
	for i := range table {
		table[i] = make([]int64, len(targets))
	}
	if len(sources) == 0 || len(targets) == 0 {
		return table, nil
	}
	n := ix.g.NumVertices()
	// Per-target memo: memoDist[v] = dist(v, t) for every vertex v some walk
	// toward the current target has passed, validated by generation.
	sc := getBatchScratch(n)
	defer batchScratchPool.Put(sc)
	memoDist, memoGen, gen := sc.memoDist, sc.memoGen, sc.gen
	defer func() { sc.gen = gen }()
	// prefixV/prefixD record the current walk: vertices visited before the
	// memo hit and the accumulated weight at each.
	prefixV := make([]graph.VertexID, 0, 64)
	prefixD := make([]int64, 0, 64)

	steps := 0
	for j, t := range targets {
		gen++
		if gen == 0 {
			// The recycled counter wrapped: stale entries from 2^32
			// targets ago would alias the new generation.
			clear(memoGen)
			gen = 1
		}
		memoGen[t] = gen
		memoDist[t] = 0
		for i, s := range sources {
			prefixV = prefixV[:0]
			prefixD = prefixD[:0]
			cur := s
			var total int64
			corrupted := false
			for memoGen[cur] != gen {
				if err := cancel.Poll(ctx, steps); err != nil {
					return nil, err
				}
				steps++
				prefixV = append(prefixV, cur)
				prefixD = append(prefixD, total)
				slot := ix.lookup(cur, t)
				if slot == noHop {
					break
				}
				lo, hi := ix.g.ArcsOf(cur)
				a := lo + int32(slot)
				if a >= hi {
					break
				}
				cur = ix.g.Head(a)
				total += int64(ix.g.ArcWeight(a))
				if len(prefixV) > n {
					// Defensive: a corrupted table would loop forever. Match
					// the per-pair guard and do not poison the memo.
					corrupted = true
					break
				}
			}
			if corrupted {
				table[i][j] = graph.Infinity
				continue
			}
			if memoGen[cur] == gen {
				// Walk resolved through the memo (or reached t, whose memo
				// entry is 0). Distances decrease along the walk, so every
				// prefix vertex's distance to t follows by subtraction.
				suffix := memoDist[cur]
				if suffix >= graph.Infinity {
					table[i][j] = graph.Infinity
					for _, v := range prefixV {
						memoGen[v] = gen
						memoDist[v] = graph.Infinity
					}
					continue
				}
				d := total + suffix
				table[i][j] = d
				for k, v := range prefixV {
					memoGen[v] = gen
					memoDist[v] = d - prefixD[k]
				}
				continue
			}
			// The walk dead-ended: no first hop from cur toward t. The walk
			// from any prefix vertex is a suffix of this walk, so all of them
			// are equally unreachable.
			table[i][j] = graph.Infinity
			for _, v := range prefixV {
				memoGen[v] = gen
				memoDist[v] = graph.Infinity
			}
		}
	}
	return table, nil
}
