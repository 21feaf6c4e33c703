package tnr

import (
	"context"
	"fmt"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
)

// fallbackOpenPath streams a path from the configured fallback technique
// (CH lazy shortcut unpacking, or the bidirectional Dijkstra parent walk).
func (sr *Searcher) fallbackOpenPath(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error) {
	if sr.bi != nil {
		return sr.bi.OpenPath(ctx, s, t)
	}
	return sr.chSearch.OpenPath(ctx, s, t)
}

// walks reports whether a path query is answered by the table walk. Under
// the flawed Appendix B access computation none is: its tables can be
// wrong, a lazy walk cannot retract vertices it has yielded, and the
// first-equality stop of Searcher.dist holds on exact tables only, so that
// variant's paths come from the fallback, which is exact. (Appendix B is
// about Distance, which still answers from the flawed tables.)
func (sr *Searcher) walks(s, t graph.VertexID) bool {
	return sr.ix.opts.Access == AccessCorrected && sr.ix.CanAnswerFromTables(s, t)
}

// tailMemo is the target half of Equation 1 on one layer, kept for the one
// target of a walk: tail[a] = min over t's access nodes b of T[a][b] +
// d(b, t), filled on first use per access-node index a and valid while
// stamp[a] == gen. 12 bytes per access node of the layer.
type tailMemo struct {
	l     *layer
	tgt   endpointAccess // t's operand
	tail  []int64
	stamp []uint32
	gen   uint32
	open  bool // tgt and gen belong to the current walk
}

// memoFor returns the memo of the layer that answers (v, t), opened for
// this walk, or nil when (v, t) is a local pair.
func (it *tableWalkIter) memoFor(v graph.VertexID) *tailMemo {
	sr := it.sr
	l := sr.ix.tableLayer(v, it.t)
	if l == nil {
		return nil
	}
	m := &sr.memo[0]
	if l != sr.ix.coarse {
		m = &sr.memo[1]
	}
	if !m.open {
		if m.stamp == nil {
			m.l = l
			m.tail = make([]int64, len(l.anList))
			m.stamp = make([]uint32, len(l.anList))
		}
		m.gen++
		if m.gen == 0 {
			clear(m.stamp)
			m.gen = 1
		}
		m.tgt.set(l, it.t)
		m.open = true
	}
	return m
}

// dist returns dist(v, t) by Equation 1 with the target half memoized:
// min over v's access nodes a of d(v, a) + tail[a]. Every candidate is the
// length of some v-t walk, so one equal to want — a lower bound on
// dist(v, t) — is the minimum and ends the sweep; callers that have no
// bound pass a negative want.
func (sr *Searcher) dist(m *tailMemo, v graph.VertexID, want int64) int64 {
	l := m.l
	va := l.vaDist[v]
	best := graph.Infinity
	for i, a := range l.cellAN[l.cellOf[v]] {
		if va[i] == invalidDist {
			continue
		}
		if m.stamp[a] != m.gen {
			m.stamp[a] = m.gen
			m.tail[a] = l.minPlus(a, m.tgt)
			sr.lookups += len(m.tgt.row)
		}
		if d := int64(va[i]) + m.tail[a]; d < best {
			best = d
			if d == want {
				break
			}
		}
	}
	return best
}

// tableWalkIter is the lazy §3.3 path walk: while the current vertex is
// far from t the next hop is the first neighbor v with
// w(cur, v) + dist(v, t) = dist(cur, t), dist evaluated from the tables
// through the walk's tail memos; once the walk enters t's locality it
// stitches on the fallback technique's own PathIterator, so the local
// remainder is streamed too and nothing is ever materialized.
type tableWalkIter struct {
	sr        *Searcher
	ctx       context.Context
	cur, t    graph.VertexID
	prev      graph.VertexID // the vertex the walk reached cur from; -1 at s
	remaining int64

	tail    graph.PathIterator // non-nil once delegated to the fallback
	steps   int
	evals   int // neighbors evaluated from the tables (TestWalkWorkCount)
	started bool
	done    bool
	err     error
}

// Next implements graph.PathIterator, polling ctx every cancel.Interval
// hops (the fallback tail polls its own search cadence).
func (it *tableWalkIter) Next() (graph.VertexID, bool) {
	if it.done {
		return 0, false
	}
	if !it.started {
		it.started = true
		return it.cur, true
	}
	if it.tail != nil {
		v, ok := it.tail.Next()
		if !ok {
			it.err = it.tail.Err()
			it.done = true
		}
		return v, ok
	}
	if it.cur == it.t {
		it.done = true
		return 0, false
	}
	if err := cancel.Poll(it.ctx, it.steps); err != nil {
		it.err = err
		it.done = true
		return 0, false
	}
	it.steps++
	if it.memoFor(it.cur) == nil {
		// Local remainder: stitch on the fallback technique's iterator.
		return it.delegate()
	}
	// Pick the neighbor on a shortest path to t. Every neighbor is
	// evaluated with a table distance when possible; if any neighbor needs
	// a fallback we stop the traversal here and let the fallback stream
	// the rest, keeping the cost profile of §3.3. The vertex the walk came
	// from is not evaluated: weights are at least 1, so it is farther from
	// t than cur is.
	g := it.sr.ix.g
	lo, hi := g.ArcsOf(it.cur)
	for a := lo; a < hi; a++ {
		v, want := g.Head(a), it.remaining-int64(g.ArcWeight(a))
		if v == it.prev {
			continue
		}
		if m := it.memoFor(v); m != nil {
			it.evals++
			if it.sr.dist(m, v, want) != want {
				continue
			}
		} else if v != it.t {
			return it.delegate()
		} else if want != 0 {
			continue
		}
		it.prev, it.cur, it.remaining = it.cur, v, want
		return v, true
	}
	return it.delegate()
}

// delegate opens the fallback path from cur and verifies it against the
// remaining table distance before yielding from it. The two are exact
// distances of one pair; a disagreement is a bug in this package.
func (it *tableWalkIter) delegate() (graph.VertexID, bool) {
	tail, tailDist, err := it.sr.fallbackOpenPath(it.ctx, it.cur, it.t)
	if err == nil && (tail == nil || tailDist != it.remaining) {
		err = fmt.Errorf("tnr: internal error: fallback distance %d from %d to %d, tables say %d",
			tailDist, it.cur, it.t, it.remaining)
	}
	if err != nil {
		it.err = err
		it.done = true
		return 0, false
	}
	// The tail starts at cur, which has already been yielded.
	if _, ok := tail.Next(); !ok {
		it.err = tail.Err()
		it.done = true
		return 0, false
	}
	it.tail = tail
	v, ok := tail.Next()
	if !ok {
		it.err = tail.Err()
		it.done = true
	}
	return v, ok
}

// Err implements graph.PathIterator.
func (it *tableWalkIter) Err() error { return it.err }

// OpenPath returns a PathIterator over the shortest path from s to t plus
// its length, or (nil, Infinity, nil) when t is unreachable. Far pairs
// stream the lazy table walk stitched onto the fallback's iterator; local
// pairs stream the fallback directly. The table walk polls ctx every
// cancel.Interval hops and the fallback searches every cancel.Interval
// settled vertices; both abort with ctx's error.
func (sr *Searcher) OpenPath(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, graph.Infinity, err
	}
	if !sr.walks(s, t) {
		sr.countFallback()
		return sr.fallbackOpenPath(ctx, s, t)
	}
	sr.countTable()
	sr.memo[0].open, sr.memo[1].open = false, false
	sr.walk = tableWalkIter{sr: sr, ctx: ctx, cur: s, prev: -1, t: t}
	sr.walk.remaining = sr.dist(sr.walk.memoFor(s), s, -1)
	if sr.walk.remaining >= graph.Infinity {
		return nil, graph.Infinity, nil
	}
	return &sr.walk, sr.walk.remaining, nil
}
