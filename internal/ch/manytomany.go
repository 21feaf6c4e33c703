package ch

import (
	"context"
	"slices"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// This file implements the bucket many-to-many algorithm of Knopp et al.:
// one backward upward search per target deposits (target index, distance)
// entries at every vertex it reaches; one forward upward search per source
// then scans the bucket of each vertex as it settles it. Because every
// shortest path in a contraction hierarchy has a peak vertex reached by both
// upward searches, the minimum over common vertices is exact.
//
// A forward search stops once its row is full, the way the point-to-point
// search stops when its frontier keys reach the best distance (§3.2): when
// every target has a finite entry and the next key is at least the row's
// largest entry, every vertex left settles at a label no smaller than any
// entry, so no bucket scan can lower one. The stop fires only after every
// target has been touched, so a row's cells are emitted in the order the
// full search would have touched them. Random endpoints far apart rarely
// fill a row before the top of the hierarchy; endpoints in one region, the
// shape of a dispatch matrix, fill it well below. The backward searches are
// not bounded: no bound on a target's largest distance exists before the
// forward searches have run.
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
// pair tables, one call per chunk of source rows on concurrent goroutines
// (each call takes a scratch of its own from the pool), and SILC and PCPD
// (and arc-flags) the one-to-all sweeps of sweep.go.

// ManyToManyContext computes the full distance table between sources and
// targets: table[i][j] is dist(sources[i], targets[j]), or graph.Infinity
// when unreachable. The per-endpoint upward searches poll ctx every
// cancel.Interval settled vertices, so a large matrix request aborts
// promptly when its context is cancelled. On cancellation the partial table
// is discarded and ctx's error returned. The rows of the returned table
// share one backing array; in steady state the table is all a call
// allocates.
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

// ManyToManyEach computes the same distances as ManyToManyContext but
// streams them: fn is called exactly once per (source index, target index)
// pair with a finite distance. Pairs that are unreachable are not
// reported. This lets callers with sparse needs (e.g. TNR's hybrid-grid
// table) avoid materializing a quadratic table.
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
// vertex whose bucket it belongs to.
type deposit struct {
	vertex graph.VertexID
	target int32
	dist   int64
}

// bucketSpan locates the bucket of one vertex in m2mScratch.entries.
type bucketSpan struct{ lo, hi int32 }

// m2mScratch is everything one many-to-many call needs besides the
// hierarchy itself: 28 bytes per vertex (16-byte label, 4-byte heap
// position, 8-byte bucket span) plus 32 bytes per bucket deposit (the
// 16-byte deposit and its 16-byte entry). Every run leaves it reusable, a
// cancelled one included.
type m2mScratch struct {
	// q is the state of the upward search in progress; totalSettled counts
	// every pop of the run, backward and forward, for cancel.Poll.
	q            pq.Search
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

	// row is the per-source result row, as long as the widest batch run so
	// far and graph.Infinity everywhere between forward searches; a run uses
	// its first len(targets) cells. touched lists, in the order the search
	// first lowered them, the target indices that hold a finite entry.
	row     []int64
	touched []int32
}

func newM2MScratch(n int) *m2mScratch {
	return &m2mScratch{
		q:    pq.NewSearch(n),
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

	for ti, t := range targets {
		if err := sc.backward(ctx, h, t, int32(ti)); err != nil {
			return err
		}
	}
	sc.buildBuckets()

	for len(sc.row) < len(targets) {
		sc.row = append(sc.row, graph.Infinity)
	}
	row := sc.row[:len(targets)]
	for si, s := range sources {
		err := sc.forward(ctx, h, s, row)
		for _, ti := range sc.touched {
			if err == nil {
				fn(si, int(ti), row[ti])
			}
			row[ti] = graph.Infinity
		}
		if err != nil {
			return err
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

// backward runs the upward search with stall-on-demand from root, the
// target with index target, to exhaustion, and deposits every unstalled
// vertex it settles with its label.
func (sc *m2mScratch) backward(ctx context.Context, h *Hierarchy, root graph.VertexID, target int32) error {
	q := &sc.q
	q.Reset() // a cancelled search leaves its frontier behind
	q.Visit(root, 0, -1)
	for !q.Empty() {
		if err := cancel.Poll(ctx, sc.totalSettled); err != nil {
			return err
		}
		v, d := q.Pop()
		sc.totalSettled++
		if h.stalled(v, d, q) {
			continue
		}
		sc.deposits = append(sc.deposits, deposit{v, target, d})
		for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
			q.Visit(h.upHead[a], d+int64(h.upWeight[a]), v)
		}
	}
	return nil
}

// forward runs the upward search with stall-on-demand from root, scans the
// bucket of every unstalled vertex into row as it settles it, and records in
// sc.touched the target indices it gives a finite entry. It stops before a
// pop whose key is at least bound, the largest entry of the row once every
// target has one: every vertex left settles at a label no smaller, so no
// scan could lower an entry. Cancelled, it returns ctx's error with row and
// sc.touched as far as it got.
//
// bound is graph.Infinity until the last target is first reached, which no
// key reaches, and is taken then over row alone — never over all of sc.row,
// whose cells past len(targets) stay graph.Infinity and would switch the
// stop off. It is recomputed only when the entry equal to it is lowered;
// lowering a smaller entry leaves it the maximum.
func (sc *m2mScratch) forward(ctx context.Context, h *Hierarchy, root graph.VertexID, row []int64) error {
	q := &sc.q
	q.Reset()
	q.Visit(root, 0, -1)
	sc.touched = sc.touched[:0]
	bound := graph.Infinity
	for !q.Empty() {
		if _, key := q.Min(); key >= bound {
			break
		}
		if err := cancel.Poll(ctx, sc.totalSettled); err != nil {
			return err
		}
		v, d := q.Pop()
		sc.totalSettled++
		if h.stalled(v, d, q) {
			continue
		}
		b := sc.span[v]
		for _, be := range sc.entries[b.lo:b.hi] {
			total, old := d+be.dist, row[be.target]
			if total >= old {
				continue
			}
			row[be.target] = total
			if old == graph.Infinity {
				sc.touched = append(sc.touched, be.target)
				if len(sc.touched) == len(row) {
					bound = slices.Max(row)
				}
			} else if old == bound {
				bound = slices.Max(row)
			}
		}
		for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
			q.Visit(h.upHead[a], d+int64(h.upWeight[a]), v)
		}
	}
	return nil
}
