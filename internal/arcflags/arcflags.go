// Package arcflags implements Arc Flags (Hilger et al., surveyed in the
// paper's Appendix A): a grid is imposed on the network and every directed
// arc is tagged with the set of grid cells it leads to on some shortest
// path.
//
// A query runs two Dijkstra searches, as in the two-sided query of Hilger,
// Köhler, Möhring and Schilling: one from s that relaxes only the arcs
// flagged for t's cell, and one from t that relaxes only the arcs flagged
// for s's cell. The graph is undirected, so a shortest t-s path is a
// shortest s-t path reversed, and every one of its arcs leads toward s's
// cell: one flag table prunes both searches. As in dijkstra.Bidirectional,
// the side with the smaller queue head settles next, every relaxed arc
// checks for a crossing into the other side's labels, and the searches stop
// once the two heads sum to the best crossing found. Each side queues on a
// pq.RingSearch sized by the graph's largest arc weight, which Build
// computes once.
//
// The paper cites prior work showing Arc Flags inferior to CH in space and
// query time; this package lets the claim be checked on our testbed, which
// EXPERIMENTS.md's Appendix A extensions table does.
//
// Flags are computed exactly, ties included: for each cell C and each
// boundary vertex b of C, an arc (u -> v) is flagged for C when
// dist(u, b) = w(u, v) + dist(v, b) — i.e. the arc is tight on some
// shortest path toward b — and every arc whose head lies in C is flagged
// for C. Together these cover every shortest path into the cell. The
// distances toward b come from one hierarchy sweep per boundary vertex
// (ch.Sweeper); every tight arc is flagged, so unlike first hops the flags
// involve no tie-break at all.
package arcflags

import (
	"context"
	"runtime"
	"slices"

	"roadnet/internal/cancel"
	"roadnet/internal/ch"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
	"roadnet/internal/pq"
)

// gridSize is the number of grid cells per axis.
const gridSize = 8

// A flag set is one uint64, so the grid has at most 64 cells: a larger
// gridSize makes this constant negative and the package fails to compile.
const _ uint = 64 - gridSize*gridSize

// Index is a built arc-flags index. The flag tables are immutable after
// Build, so one Index may be shared by any number of goroutines; per-query
// mutable state lives in a searcher (create one per goroutine with
// NewSearcher).
type Index struct {
	g      *graph.Graph
	grid   geom.Grid
	cellOf []int32
	// flags[arc] is the cell bitset of the arc: bit c is cell c's flag.
	flags     []uint64
	maxWeight graph.Weight
}

// NewSearcher returns a fresh searcher sharing ix's immutable flag tables.
func (ix *Index) NewSearcher() *Searcher {
	n, step := ix.g.NumVertices(), int64(ix.maxWeight)
	return &Searcher{ix: ix, side: [2]pq.RingSearch{pq.NewRingSearch(n, step), pq.NewRingSearch(n, step)}}
}

// Build computes arc flags for g, sweeping h, a contraction hierarchy of
// g, once per boundary vertex on GOMAXPROCS goroutines. The flags depend
// neither on which hierarchy it is nor on the goroutine count.
func Build(g *graph.Graph, h *ch.Hierarchy) *Index {
	n := g.NumVertices()
	ix := &Index{
		g:         g,
		grid:      geom.NewGrid(g.Bounds(), gridSize, gridSize),
		cellOf:    make([]int32, n),
		flags:     make([]uint64, g.NumArcs()),
		maxWeight: g.MaxWeight(),
	}
	for v := 0; v < n; v++ {
		c, r := ix.grid.CellOf(g.Coord(graph.VertexID(v)))
		ix.cellOf[v] = int32(ix.grid.CellIndex(c, r))
	}

	// Arcs whose head lies in C are flagged for C; a vertex with a neighbor
	// in another cell is a boundary vertex of its own.
	var boundary []graph.VertexID
	for u := 0; u < n; u++ {
		crosses := false
		lo, hi := g.ArcsOf(graph.VertexID(u))
		for a := lo; a < hi; a++ {
			c := ix.cellOf[g.Head(a)]
			ix.flags[a] |= 1 << uint(c)
			crosses = crosses || c != ix.cellOf[u]
		}
		if crosses {
			boundary = append(boundary, graph.VertexID(u))
		}
	}

	// One sweep per boundary vertex b; the arcs tight toward b get the flag
	// of b's cell. Each worker sets flags in words of its own, OR-ed into
	// the index once all sweeps are done.
	workers := runtime.GOMAXPROCS(0)
	parts := make([][]uint64, workers)
	par.Each(workers, len(boundary), func(w int) func(int) {
		sw := h.NewSweeper()
		flags := make([]uint64, len(ix.flags))
		parts[w] = flags
		return func(i int) {
			b := boundary[i]
			bit := uint64(1) << uint(ix.cellOf[b])
			dist := sw.Run(b) // d(b, ·) = d(·, b): the graph is undirected
			for u := 0; u < n; u++ {
				du := dist[u]
				if du >= graph.Infinity {
					continue
				}
				lo, hi := g.ArcsOf(graph.VertexID(u))
				for a := lo; a < hi; a++ {
					if dist[g.Head(a)]+int64(g.ArcWeight(a)) == du {
						flags[a] |= bit
					}
				}
			}
		}
	})
	for _, flags := range parts {
		for i, f := range flags {
			ix.flags[i] |= f
		}
	}
	return ix
}

// SizeBytes reports the flag table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.flags))*8 + int64(len(ix.cellOf))*4
}

// Searcher answers queries on an Index by the flag-pruned bidirectional
// search of the package doc. A Searcher is not safe for concurrent use;
// create one per goroutine.
type Searcher struct {
	ix *Index
	// side[0] searches from s, side[1] from t.
	side [2]pq.RingSearch

	// pathBuf and pathIter are the searcher-owned scratch behind OpenPath:
	// the two parent walks are joined in pathBuf (reused across queries)
	// and streamed from pathIter.
	pathBuf  []graph.VertexID
	pathIter graph.SlicePath
}

// search runs the query and returns the distance and the vertex where the
// two searches meet on a shortest path, or (Infinity, -1) when t is
// unreachable. An already-cancelled context aborts before any work,
// trivial src == t queries included.
func (s *Searcher) search(ctx context.Context, src, t graph.VertexID) (int64, graph.VertexID, error) {
	s.side[0].Reset()
	s.side[1].Reset()
	if err := ctx.Err(); err != nil {
		return graph.Infinity, -1, err
	}
	s.side[0].Visit(src, 0, -1)
	s.side[1].Visit(t, 0, -1)
	if src == t {
		return 0, src, nil
	}
	g, flags := s.ix.g, s.ix.flags
	mask := [2]uint64{1 << uint(s.ix.cellOf[t]), 1 << uint(s.ix.cellOf[src])}
	best, meet := graph.Infinity, graph.VertexID(-1)
	for {
		if err := cancel.Poll(ctx, s.SettledLast()); err != nil {
			return graph.Infinity, -1, err
		}
		// An empty side's head is Infinity, which ends the search: it has
		// exhausted the arcs that lead toward the other end.
		k0, k1 := graph.Infinity, graph.Infinity
		if !s.side[0].Empty() {
			_, k0 = s.side[0].Min()
		}
		if !s.side[1].Empty() {
			_, k1 = s.side[1].Min()
		}
		if k0+k1 >= best {
			return best, meet, nil
		}
		side := 0
		if k1 < k0 {
			side = 1
		}
		q, other, m := &s.side[side], &s.side[1-side], mask[side]
		v, d := q.Pop()
		lo, hi := g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			if flags[a]&m == 0 {
				continue
			}
			w := g.Head(a)
			nd := d + int64(g.ArcWeight(a))
			q.Visit(w, nd, v)
			if l := other.Labels[w]; l.Gen == other.Cur && nd+l.Dist < best {
				best, meet = nd+l.Dist, w
			}
		}
	}
}

// Distance answers a distance query.
func (s *Searcher) Distance(src, t graph.VertexID) int64 {
	d, _, _ := s.search(context.Background(), src, t)
	return d
}

// DistanceContext is Distance with cancellation: the search polls ctx every
// cancel.Interval settled vertices and aborts with ctx's error.
func (s *Searcher) DistanceContext(ctx context.Context, src, t graph.VertexID) (int64, error) {
	d, _, err := s.search(ctx, src, t)
	return d, err
}

// OpenPath runs the query and returns a PathIterator over the shortest path
// plus its length, or (nil, Infinity, nil) when t is unreachable. The two
// parent walks are joined at the meeting vertex in searcher-owned scratch,
// so streaming a path allocates nothing in steady state; the iterator is
// invalidated by this searcher's next query.
func (s *Searcher) OpenPath(ctx context.Context, src, t graph.VertexID) (graph.PathIterator, int64, error) {
	d, meet, err := s.search(ctx, src, t)
	if err != nil || meet < 0 {
		return nil, graph.Infinity, err
	}
	path := s.side[0].AppendParents(append(s.pathBuf[:0], meet), meet)
	slices.Reverse(path)
	s.pathBuf = s.side[1].AppendParents(path, meet)
	s.pathIter.Reset(s.pathBuf)
	return &s.pathIter, d, nil
}

// SettledLast reports the vertices both searches settled in the last query:
// 0 after one that searched nothing.
func (s *Searcher) SettledLast() int { return s.side[0].Settled + s.side[1].Settled }
