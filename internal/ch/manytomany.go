package ch

import (
	"context"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// This file implements the bucket many-to-many algorithm of Knopp et al.:
// one backward upward search per target deposits (target index, distance)
// entries at every vertex it reaches; one forward upward search per source
// then scans the buckets of the vertices it reaches. Because every shortest
// path in a contraction hierarchy has a peak vertex reached by both upward
// searches, the minimum over common vertices is exact.
//
// Both kinds of search apply stall-on-demand exactly as Searcher.runCtx
// does: a settled vertex v with a reached upward neighbour w such that
// dist[w] + w(v, w) < dist[v] has a provably inexact label, so it deposits
// nothing, scans nothing and relaxes nothing. The peak vertex of a shortest
// path carries exact labels in both directions and is therefore never
// stalled, which keeps the table exact.
//
// A batch costs what its searches cost: all per-vertex state lives in an
// m2mScratch recycled through a sync.Pool on the Hierarchy and is reset by
// generation stamps and touched lists, never by clearing |V| entries.
//
// The paper uses CH to accelerate the preprocessing of TNR, SILC and PCPD
// (§4.1); our TNR preprocessing uses these routines to fill its access-node
// distance tables, and SILC and PCPD (and arc-flags) the one-to-all sweeps
// of sweep.go.

// ManyToMany computes the full distance table between sources and targets.
// table[i][j] is dist(sources[i], targets[j]), or graph.Infinity when
// unreachable.
func (h *Hierarchy) ManyToMany(sources, targets []graph.VertexID) [][]int64 {
	table, _ := h.ManyToManyContext(context.Background(), sources, targets)
	return table
}

// ManyToManyContext is ManyToMany with cancellation: the per-endpoint
// upward searches poll ctx every cancel.Interval settled vertices, so a
// large matrix request aborts promptly when its context is cancelled. On
// cancellation the partial table is discarded and ctx's error returned.
// The rows of the returned table share one backing array; in steady state
// the table is all a call allocates.
func (h *Hierarchy) ManyToManyContext(ctx context.Context, sources, targets []graph.VertexID) ([][]int64, error) {
	table := make([][]int64, len(sources))
	cells := make([]int64, len(sources)*len(targets))
	for i := range cells {
		cells[i] = graph.Infinity
	}
	for i := range table {
		table[i] = cells[i*len(targets) : (i+1)*len(targets) : (i+1)*len(targets)]
	}
	err := h.manyToManyEach(ctx, sources, targets, func(si, ti int, d int64) {
		table[si][ti] = d
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// ManyToManyEach computes the same distances as ManyToMany but streams them:
// fn is called exactly once per (source index, target index) pair with a
// finite distance. Pairs that are unreachable are not reported. This lets
// callers with sparse needs (e.g. TNR's hybrid-grid table) avoid
// materializing a quadratic table.
func (h *Hierarchy) ManyToManyEach(sources, targets []graph.VertexID, fn func(si, ti int, d int64)) {
	_ = h.manyToManyEach(context.Background(), sources, targets, fn)
}

func (h *Hierarchy) manyToManyEach(ctx context.Context, sources, targets []graph.VertexID, fn func(si, ti int, d int64)) error {
	if len(sources) == 0 || len(targets) == 0 {
		return nil
	}
	sc, _ := h.m2mPool.Get().(*m2mScratch)
	if sc == nil {
		sc = newM2MScratch(h.g.NumVertices())
	}
	// Not deferred: a scratch abandoned by a panicking fn is in an unknown
	// state and must not be recycled.
	err := sc.run(ctx, h, sources, targets, fn)
	h.m2mPool.Put(sc)
	return err
}

// bucketEntry is one deposit of a backward search: the target it started
// from and its upward distance to the vertex owning the bucket.
type bucketEntry struct {
	target int32
	dist   int64
}

// deposit is one unstalled vertex settled by the upward search from
// targets[target]: a bucketEntry on its way into the CSR, still carrying the
// vertex whose bucket it belongs to. Forward searches record what they
// settle in the same shape and leave target unused.
type deposit struct {
	vertex graph.VertexID
	target int32
	dist   int64
}

// bucketSpan locates the bucket of one vertex in m2mScratch.entries.
type bucketSpan struct{ lo, hi int32 }

// m2mScratch is everything one many-to-many call needs besides the
// hierarchy itself: 28 bytes per vertex plus 32 bytes per bucket deposit.
// Every run leaves it reusable, a cancelled one included.
type m2mScratch struct {
	// Upward search state. gen[v] == cur marks dist[v] as belonging to the
	// search in progress.
	dist []int64
	gen  []uint32
	cur  uint32
	heap *pq.Heap
	// settled lists the unstalled vertices of the last forward search in
	// settling order; totalSettled counts every pop of the run for
	// cancel.Poll.
	settled      []deposit
	totalSettled int

	// Bucket store. The backward searches collect deposits; a counting sort
	// by vertex turns them into entries, where the bucket of v is the
	// contiguous run entries[span[v].lo:span[v].hi], ordered by target
	// index. Only the spans of the vertices in reached are non-empty; they
	// are zeroed at the start of the next run.
	deposits []deposit
	entries  []bucketEntry
	span     []bucketSpan
	reached  []graph.VertexID

	// row is the per-source result row, graph.Infinity everywhere between
	// searches; touched lists the targets a search lowered.
	row     []int64
	touched []int32
}

func newM2MScratch(n int) *m2mScratch {
	return &m2mScratch{
		dist: make([]int64, n),
		gen:  make([]uint32, n),
		heap: pq.New(n),
		span: make([]bucketSpan, n),
	}
}

func (sc *m2mScratch) run(ctx context.Context, h *Hierarchy, sources, targets []graph.VertexID, fn func(si, ti int, d int64)) error {
	for _, v := range sc.reached {
		sc.span[v].lo, sc.span[v].hi = 0, 0
	}
	sc.reached = sc.reached[:0]
	sc.deposits = sc.deposits[:0]
	sc.totalSettled = 0

	var err error
	for ti, t := range targets {
		if sc.deposits, err = sc.upward(ctx, h, t, int32(ti), sc.deposits); err != nil {
			return err
		}
	}
	sc.buildBuckets()

	for len(sc.row) < len(targets) {
		sc.row = append(sc.row, graph.Infinity)
	}
	row := sc.row
	for si, s := range sources {
		if sc.settled, err = sc.upward(ctx, h, s, 0, sc.settled[:0]); err != nil {
			return err
		}
		sc.touched = sc.touched[:0]
		for _, e := range sc.settled {
			b := sc.span[e.vertex]
			for _, be := range sc.entries[b.lo:b.hi] {
				if total := e.dist + be.dist; total < row[be.target] {
					if row[be.target] == graph.Infinity {
						sc.touched = append(sc.touched, be.target)
					}
					row[be.target] = total
				}
			}
		}
		for _, ti := range sc.touched {
			fn(si, int(ti), row[ti])
			row[ti] = graph.Infinity
		}
	}
	return nil
}

// buildBuckets counting-sorts the deposits by vertex into entries. The sort
// is stable, so each bucket keeps the target order of the deposits.
func (sc *m2mScratch) buildBuckets() {
	for _, d := range sc.deposits {
		if sc.span[d.vertex].hi == 0 {
			sc.reached = append(sc.reached, d.vertex)
		}
		sc.span[d.vertex].hi++
	}
	next := int32(0)
	for _, v := range sc.reached {
		count := sc.span[v].hi
		sc.span[v].lo, sc.span[v].hi = next, next
		next += count
	}
	if cap(sc.entries) < len(sc.deposits) {
		sc.entries = make([]bucketEntry, len(sc.deposits))
	}
	sc.entries = sc.entries[:len(sc.deposits)]
	for _, d := range sc.deposits {
		sc.entries[sc.span[d.vertex].hi] = bucketEntry{d.target, d.dist}
		sc.span[d.vertex].hi++
	}
}

// upward runs one upward search with stall-on-demand from root and appends
// the unstalled vertices it settles, with their labels and tagged target, to
// out.
func (sc *m2mScratch) upward(ctx context.Context, h *Hierarchy, root graph.VertexID, target int32, out []deposit) ([]deposit, error) {
	sc.cur++
	if sc.cur == 0 {
		clear(sc.gen)
		sc.cur = 1
	}
	cur, dist, gen, heap := sc.cur, sc.dist, sc.gen, sc.heap
	heap.Clear() // a cancelled search leaves its frontier behind
	gen[root] = cur
	dist[root] = 0
	heap.Push(root, 0)
	for !heap.Empty() {
		if err := cancel.Poll(ctx, sc.totalSettled); err != nil {
			return out, err
		}
		v, d := heap.Pop()
		sc.totalSettled++
		if h.stalled(v, d, dist, gen, cur) {
			continue
		}
		out = append(out, deposit{v, target, d})
		for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
			w := h.upHead[a]
			nd := d + int64(h.upWeight[a])
			if gen[w] != cur {
				gen[w] = cur
				dist[w] = nd
				heap.Push(w, nd)
			} else if nd < dist[w] && heap.Contains(w) {
				dist[w] = nd
				heap.Push(w, nd)
			}
		}
	}
	return out, nil
}
