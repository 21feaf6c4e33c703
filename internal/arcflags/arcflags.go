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
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
	"roadnet/internal/pq"
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
// mutable state lives in a Searcher (create one per goroutine with
// NewSearcher). The Index's own Distance/ShortestPath methods delegate to
// one internal default Searcher and are therefore not safe for concurrent
// use.
type Index struct {
	g      *graph.Graph
	grid   geom.Grid
	cellOf []int32
	words  int
	// flags[arc*words .. arc*words+words) is the cell bitset of the arc.
	flags []uint64

	buildTime time.Duration

	// def is the default searcher backing the Index's own query methods.
	def *Searcher
}

// Searcher is a reusable flag-pruned Dijkstra context over an Index. It is
// not safe for concurrent use; create one per goroutine.
type Searcher struct {
	ix *Index

	dist        []int64
	parent      []int32
	gen         []uint32
	cur         uint32
	heap        *pq.Heap
	settledLast int

	// pathBuf and pathIter are the searcher-owned scratch behind OpenPath
	// and the path collector: the parent walk is assembled into pathBuf
	// (reused across queries) and streamed from pathIter.
	pathBuf  []graph.VertexID
	pathIter graph.SlicePath
}

// NewSearcher returns a fresh query context sharing ix's immutable flag
// tables.
func (ix *Index) NewSearcher() *Searcher {
	n := ix.g.NumVertices()
	return &Searcher{
		ix:     ix,
		dist:   make([]int64, n),
		parent: make([]int32, n),
		gen:    make([]uint32, n),
		heap:   pq.New(n),
	}
}

// Build computes arc flags for g.
func Build(g *graph.Graph, opts Options) *Index {
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
		h = ch.Build(g, ch.Options{})
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
	return ix
}

// defSearcher lazily creates the default searcher, so indexes queried only
// through NewSearcher/pools never pay for its O(n) arrays. Lazy without a
// lock is fine: the Index's own query methods are single-goroutine by
// contract.
func (ix *Index) defSearcher() *Searcher {
	if ix.def == nil {
		ix.def = ix.NewSearcher()
	}
	return ix.def
}

func (ix *Index) setFlag(arc int32, cell int32) {
	ix.flags[int(arc)*ix.words+int(cell)/64] |= 1 << (uint(cell) % 64)
}

func (ix *Index) hasFlag(arc int32, cell int32) bool {
	return ix.flags[int(arc)*ix.words+int(cell)/64]&(1<<(uint(cell)%64)) != 0
}

func (s *Searcher) reset() {
	s.cur++
	if s.cur == 0 {
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.cur = 1
	}
	s.heap.Clear()
}

// runCtx executes the flag-pruned Dijkstra from src toward t, polling ctx
// every cancel.Interval settled vertices and aborting with its error.
func (s *Searcher) runCtx(ctx context.Context, src, t graph.VertexID) (bool, error) {
	ix := s.ix
	s.reset()
	s.settledLast = 0
	target := ix.cellOf[t]
	s.gen[src] = s.cur
	s.dist[src] = 0
	s.parent[src] = -1
	s.heap.Push(src, 0)
	for !s.heap.Empty() {
		if err := cancel.Poll(ctx, s.settledLast); err != nil {
			return false, err
		}
		v, d := s.heap.Pop()
		s.settledLast++
		if v == t {
			return true, nil
		}
		lo, hi := ix.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			if !ix.hasFlag(a, target) {
				continue
			}
			w := ix.g.Head(a)
			nd := d + int64(ix.g.ArcWeight(a))
			if s.gen[w] != s.cur {
				s.gen[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = int32(v)
				s.heap.Push(w, nd)
			} else if nd < s.dist[w] && s.heap.Contains(w) {
				s.dist[w] = nd
				s.parent[w] = int32(v)
				s.heap.Push(w, nd)
			}
		}
	}
	return false, nil
}

// Distance answers a distance query.
func (s *Searcher) Distance(src, t graph.VertexID) int64 {
	d, _ := s.DistanceContext(context.Background(), src, t)
	return d
}

// ShortestPath answers a shortest-path query.
func (s *Searcher) ShortestPath(src, t graph.VertexID) ([]graph.VertexID, int64) {
	path, d, _ := s.ShortestPathContext(context.Background(), src, t)
	return path, d
}

// DistanceContext is Distance with cancellation (see runCtx). An
// already-cancelled context aborts before any work, trivial s == t
// queries included.
func (s *Searcher) DistanceContext(ctx context.Context, src, t graph.VertexID) (int64, error) {
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	if src == t {
		return 0, nil
	}
	found, err := s.runCtx(ctx, src, t)
	if err != nil {
		return graph.Infinity, err
	}
	if !found {
		return graph.Infinity, nil
	}
	return s.dist[t], nil
}

// ShortestPathContext is ShortestPath with cancellation (see runCtx). It
// is a thin collector over OpenPath: the iterator is drained into a fresh
// caller-owned slice.
func (s *Searcher) ShortestPathContext(ctx context.Context, src, t graph.VertexID) ([]graph.VertexID, int64, error) {
	it, d, err := s.OpenPath(ctx, src, t)
	if err != nil || it == nil {
		return nil, graph.Infinity, err
	}
	path, err := graph.AppendPath(make([]graph.VertexID, 0, len(s.pathBuf)), it)
	if err != nil {
		return nil, graph.Infinity, err
	}
	return path, d, nil
}

// OpenPath runs the flag-pruned query and returns a PathIterator over the
// shortest path plus its length, or (nil, Infinity, nil) when t is
// unreachable. The parent walk is assembled into searcher-owned scratch,
// so streaming a path allocates nothing in steady state; the iterator is
// invalidated by this searcher's next query.
func (s *Searcher) OpenPath(ctx context.Context, src, t graph.VertexID) (graph.PathIterator, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, graph.Infinity, err
	}
	if src == t {
		s.pathBuf = append(s.pathBuf[:0], src)
		s.pathIter.Reset(s.pathBuf)
		return &s.pathIter, 0, nil
	}
	found, err := s.runCtx(ctx, src, t)
	if err != nil {
		return nil, graph.Infinity, err
	}
	if !found {
		return nil, graph.Infinity, nil
	}
	rev := s.pathBuf[:0]
	for v := t; v >= 0; v = graph.VertexID(s.parent[v]) {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	s.pathBuf = rev
	s.pathIter.Reset(rev)
	return &s.pathIter, s.dist[t], nil
}

// SettledLast reports the vertices settled by the last query.
func (s *Searcher) SettledLast() int { return s.settledLast }

// Distance answers a distance query on the default searcher.
func (ix *Index) Distance(s, t graph.VertexID) int64 { return ix.defSearcher().Distance(s, t) }

// ShortestPath answers a shortest-path query on the default searcher.
func (ix *Index) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.defSearcher().ShortestPath(s, t)
}

// SettledLast reports the vertices settled by the default searcher's last
// query.
func (ix *Index) SettledLast() int { return ix.defSearcher().SettledLast() }

// BuildTime returns the preprocessing duration.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// SizeBytes reports the flag table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.flags))*8 + int64(len(ix.cellOf))*4
}
