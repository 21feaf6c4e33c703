package dijkstra

import (
	"context"
	"slices"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// Bidirectional implements the bidirectional Dijkstra's algorithm of §3.1:
// two simultaneous Dijkstra instances grow shortest-path trees from s and t,
// and the shortest path is found either at the meeting vertex or across an
// edge joining the two search scopes. It is the paper's baseline technique
// and also the fallback TNR uses for local queries.
//
// A Bidirectional is not safe for concurrent use.
type Bidirectional struct {
	g *graph.Graph

	dist   [2][]int64
	parent [2][]int32
	gen    [2][]uint32
	cur    [2]uint32
	heap   [2]*pq.Heap

	// pathBuf and pathIter are the searcher-owned scratch behind OpenPath:
	// the parent walk is assembled into pathBuf (reused across queries, so
	// steady-state path production allocates nothing) and streamed from
	// pathIter.
	pathBuf  []graph.VertexID
	pathIter graph.SlicePath
}

// NewBidirectional returns a reusable bidirectional searcher on g.
func NewBidirectional(g *graph.Graph) *Bidirectional {
	n := g.NumVertices()
	b := &Bidirectional{g: g}
	for side := 0; side < 2; side++ {
		b.dist[side] = make([]int64, n)
		b.parent[side] = make([]int32, n)
		b.gen[side] = make([]uint32, n)
		b.heap[side] = pq.New(n)
	}
	return b
}

func (b *Bidirectional) reset() {
	for side := 0; side < 2; side++ {
		b.cur[side]++
		if b.cur[side] == 0 {
			for i := range b.gen[side] {
				b.gen[side][i] = 0
			}
			b.cur[side] = 1
		}
		b.heap[side].Clear()
	}
}

func (b *Bidirectional) visit(side int, v graph.VertexID, d int64, parent int32) {
	if b.gen[side][v] != b.cur[side] {
		b.gen[side][v] = b.cur[side]
		b.dist[side][v] = d
		b.parent[side][v] = parent
		b.heap[side].Push(v, d)
	} else if d < b.dist[side][v] && b.heap[side].Contains(v) {
		b.dist[side][v] = d
		b.parent[side][v] = parent
		b.heap[side].Push(v, d)
	}
}

func (b *Bidirectional) reached(side int, v graph.VertexID) bool {
	return b.gen[side][v] == b.cur[side]
}

// Result carries the outcome of one bidirectional query.
type Result struct {
	// Dist is the shortest-path distance, or graph.Infinity if t is
	// unreachable from s.
	Dist int64
	// Meet is the vertex on the shortest path where the two search trees
	// join, or -1 when unreachable.
	Meet graph.VertexID
	// Settled is the total number of vertices settled by both searches,
	// reported so benchmarks can compare search-space sizes.
	Settled int
}

// Query computes the shortest-path distance between s and t; OpenPath
// reconstructs the path through the Result's Meet vertex.
func (b *Bidirectional) Query(s, t graph.VertexID) Result {
	r, _ := b.QueryContext(context.Background(), s, t)
	return r
}

// QueryContext is Query with cancellation: the search polls ctx every
// cancel.Interval settled vertices and aborts with ctx's error when it is
// done, so a long search on a large network stops within a bounded number
// of settles of the request being cancelled.
func (b *Bidirectional) QueryContext(ctx context.Context, s, t graph.VertexID) (Result, error) {
	// Per the cancellation contract, an already-cancelled context aborts
	// before any work, trivial s == t queries included.
	if err := ctx.Err(); err != nil {
		return Result{Dist: graph.Infinity, Meet: -1}, err
	}
	b.reset()
	if s == t {
		return Result{Dist: 0, Meet: s}, nil
	}
	b.visit(0, s, 0, -1)
	b.visit(1, t, 0, -1)

	best := graph.Infinity
	meet := graph.VertexID(-1)
	settled := 0

	for !b.heap[0].Empty() || !b.heap[1].Empty() {
		if err := cancel.Poll(ctx, settled); err != nil {
			return Result{Dist: graph.Infinity, Meet: -1, Settled: settled}, err
		}
		// Alternate by smaller queue head; a finished side stops expanding.
		k0, k1 := graph.Infinity, graph.Infinity
		if !b.heap[0].Empty() {
			_, k0 = b.heap[0].Min()
		}
		if !b.heap[1].Empty() {
			_, k1 = b.heap[1].Min()
		}
		// Termination: with best maintained on every arc relaxation, no
		// undiscovered s-t path can be shorter than topF + topB, so the two
		// traversals may stop once that sum reaches best. Each search then
		// explores a ball of roughly dist(s, t)/2, the behaviour §3.1
		// describes.
		if k0+k1 >= best {
			break
		}
		side := 0
		if k1 < k0 {
			side = 1
		}
		v, d := b.heap[side].Pop()
		settled++
		other := 1 - side
		lo, hi := b.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			w := b.g.Head(a)
			nd := d + int64(b.g.ArcWeight(a))
			b.visit(side, w, nd, int32(v))
			// Check for a crossing through w.
			if b.reached(other, w) {
				if total := nd + b.dist[other][w]; total < best {
					best = total
					meet = w
				}
			}
		}
	}
	if meet < 0 {
		return Result{Dist: graph.Infinity, Meet: -1, Settled: settled}, nil
	}
	return Result{Dist: best, Meet: meet, Settled: settled}, nil
}

// OpenPath runs the query and returns a PathIterator over the shortest
// path plus its length, or (nil, Infinity, nil) when t is unreachable. The
// parent walk is assembled into searcher-owned scratch, so streaming a
// path allocates nothing in steady state; the iterator is invalidated by
// this searcher's next query.
func (b *Bidirectional) OpenPath(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error) {
	r, err := b.QueryContext(ctx, s, t)
	if err != nil || r.Meet < 0 {
		return nil, graph.Infinity, err
	}
	path := append(b.pathBuf[:0], r.Meet)
	if s != t { // else the search never ran and the path is the one vertex
		for v := b.parent[0][r.Meet]; v >= 0; v = b.parent[0][v] {
			path = append(path, v)
		}
		slices.Reverse(path)
		for v := b.parent[1][r.Meet]; v >= 0; v = b.parent[1][v] {
			path = append(path, v)
		}
	}
	b.pathBuf = path
	b.pathIter.Reset(path)
	return &b.pathIter, r.Dist, nil
}

// Distance is a convenience wrapper returning only the distance.
func (b *Bidirectional) Distance(s, t graph.VertexID) int64 {
	return b.Query(s, t).Dist
}

// DistanceContext is Distance with cancellation (see QueryContext).
func (b *Bidirectional) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	r, err := b.QueryContext(ctx, s, t)
	return r.Dist, err
}
