// Package arcflags implements Arc Flags (Hilger et al., surveyed in the
// paper's Appendix A): a grid is imposed on the network and every directed
// arc is tagged with the set of grid cells it leads to on some shortest
// path. A query runs Dijkstra's algorithm but relaxes only arcs whose flag
// for the target's cell is set, pruning edges that cannot be on the way.
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

	"roadnet/internal/cancel"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
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
	flags []uint64
}

// NewSearcher returns a fresh flag-pruned Dijkstra context sharing ix's
// immutable flag tables: the shared goal-directed searcher around ix's
// settle loop.
func (ix *Index) NewSearcher() *dijkstra.GoalSearcher {
	return dijkstra.NewGoalSearcher(ix.g.NumVertices(), ix.settle)
}

// Build computes arc flags for g, sweeping h, a contraction hierarchy of
// g, once per boundary vertex on GOMAXPROCS goroutines. The flags depend
// neither on which hierarchy it is nor on the goroutine count.
func Build(g *graph.Graph, h *ch.Hierarchy) *Index {
	n := g.NumVertices()
	ix := &Index{
		g:      g,
		grid:   geom.NewGrid(g.Bounds(), gridSize, gridSize),
		cellOf: make([]int32, n),
		flags:  make([]uint64, g.NumArcs()),
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
			ix.setFlag(a, c)
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

func (ix *Index) setFlag(arc int32, cell int32) {
	ix.flags[arc] |= 1 << uint(cell)
}

func (ix *Index) hasFlag(arc int32, cell int32) bool {
	return ix.flags[arc]&(1<<uint(cell)) != 0
}

// settle is arc-flags' dijkstra.SettleFunc: Dijkstra from src toward t
// that relaxes only the arcs flagged for t's cell.
func (ix *Index) settle(ctx context.Context, s *dijkstra.GoalSearcher, src, t graph.VertexID) (bool, error) {
	target := ix.cellOf[t]
	q := &s.Search
	q.Visit(src, 0, -1)
	for !q.Empty() {
		if err := cancel.Poll(ctx, q.Settled); err != nil {
			return false, err
		}
		v, d := q.Pop()
		if v == t {
			return true, nil
		}
		lo, hi := ix.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			if ix.hasFlag(a, target) {
				q.Visit(ix.g.Head(a), d+int64(ix.g.ArcWeight(a)), v)
			}
		}
	}
	return false, nil
}

// SizeBytes reports the flag table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.flags))*8 + int64(len(ix.cellOf))*4
}
