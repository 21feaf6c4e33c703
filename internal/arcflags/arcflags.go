// Package arcflags implements Arc Flags (Hilger et al., surveyed in the
// paper's Appendix A): a grid is imposed on the network and every directed
// arc is tagged with the set of grid cells it leads to on some shortest
// path. A query runs Dijkstra's algorithm but relaxes only arcs whose flag
// for the target's cell is set, pruning edges that cannot be on the way.
//
// The paper cites prior work showing Arc Flags inferior to CH in space and
// query time; this package lets the claim be checked on our testbed (the
// extension benchmarks do exactly that).
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
	"time"

	"roadnet/internal/cancel"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
)

// Options configures Build.
type Options struct {
	// GridSize is the number of cells per axis (default 8).
	GridSize int
	// Workers bounds preprocessing parallelism (default GOMAXPROCS).
	Workers int
	// Hierarchy optionally supplies a contraction hierarchy of the graph
	// for the boundary-vertex sweeps; Build makes one with default options
	// when nil. The flags do not depend on which hierarchy it is.
	Hierarchy *ch.Hierarchy
}

// Index is a built arc-flags index. The flag tables are immutable after
// Build, so one Index may be shared by any number of goroutines; per-query
// mutable state lives in a searcher (create one per goroutine with
// NewSearcher).
type Index struct {
	g      *graph.Graph
	grid   geom.Grid
	cellOf []int32
	words  int
	// flags[arc*words .. arc*words+words) is the cell bitset of the arc.
	flags []uint64

	buildTime time.Duration
}

// NewSearcher returns a fresh flag-pruned Dijkstra context sharing ix's
// immutable flag tables: the shared goal-directed searcher around ix's
// settle loop.
func (ix *Index) NewSearcher() *dijkstra.GoalSearcher {
	return dijkstra.NewGoalSearcher(ix.g.NumVertices(), ix.settle)
}

// Build computes arc flags for g. It fails only when it has to make the
// hierarchy itself and ch.Build does.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	start := time.Now()
	if opts.GridSize <= 0 {
		opts.GridSize = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	ix := &Index{
		g:      g,
		grid:   geom.NewGrid(g.Bounds(), opts.GridSize, opts.GridSize),
		cellOf: make([]int32, n),
		words:  (opts.GridSize*opts.GridSize + 63) / 64,
	}
	ix.flags = make([]uint64, g.NumArcs()*ix.words)
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
	h := opts.Hierarchy
	if h == nil {
		var err error
		if h, err = ch.Build(g, ch.Options{}); err != nil {
			return nil, err
		}
	}
	parts := make([][]uint64, opts.Workers)
	par.Each(opts.Workers, len(boundary), func(w int) func(int) {
		sw := h.NewSweeper()
		flags := make([]uint64, len(ix.flags))
		parts[w] = flags
		return func(i int) {
			b := boundary[i]
			word, bit := int(ix.cellOf[b])/64, uint64(1)<<(uint(ix.cellOf[b])%64)
			dist := sw.Run(b) // d(b, ·) = d(·, b): the graph is undirected
			for u := 0; u < n; u++ {
				du := dist[u]
				if du >= graph.Infinity {
					continue
				}
				lo, hi := g.ArcsOf(graph.VertexID(u))
				for a := lo; a < hi; a++ {
					if dist[g.Head(a)]+int64(g.ArcWeight(a)) == du {
						flags[int(a)*ix.words+word] |= bit
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

	ix.buildTime = time.Since(start)
	return ix, nil
}

func (ix *Index) setFlag(arc int32, cell int32) {
	ix.flags[int(arc)*ix.words+int(cell)/64] |= 1 << (uint(cell) % 64)
}

func (ix *Index) hasFlag(arc int32, cell int32) bool {
	return ix.flags[int(arc)*ix.words+int(cell)/64]&(1<<(uint(cell)%64)) != 0
}

// settle is arc-flags' dijkstra.SettleFunc: Dijkstra from src toward t
// that relaxes only the arcs flagged for t's cell.
func (ix *Index) settle(ctx context.Context, s *dijkstra.GoalSearcher, src, t graph.VertexID) (bool, error) {
	target := ix.cellOf[t]
	q := &s.Search
	q.Visit(src, 0, -1)
	for !q.Empty() {
		if err := cancel.Poll(ctx, s.Settled); err != nil {
			return false, err
		}
		v, d := q.Pop()
		s.Settled++
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

// BuildTime returns the preprocessing duration.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// SizeBytes reports the flag table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.flags))*8 + int64(len(ix.cellOf))*4
}
