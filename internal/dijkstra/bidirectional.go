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
	// side[0] searches from s, side[1] from t.
	side [2]pq.Search

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
	return &Bidirectional{g: g, side: [2]pq.Search{pq.NewSearch(n), pq.NewSearch(n)}}
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
	b.side[0].Reset()
	b.side[1].Reset()
	if s == t {
		return Result{Dist: 0, Meet: s}, nil
	}
	b.side[0].Visit(s, 0, -1)
	b.side[1].Visit(t, 0, -1)

	best := graph.Infinity
	meet := graph.VertexID(-1)
	settled := 0

	for !b.side[0].Empty() || !b.side[1].Empty() {
		if err := cancel.Poll(ctx, settled); err != nil {
			return Result{Dist: graph.Infinity, Meet: -1, Settled: settled}, err
		}
		// Alternate by smaller queue head; a finished side stops expanding.
		k0, k1 := graph.Infinity, graph.Infinity
		if !b.side[0].Empty() {
			_, k0 = b.side[0].Min()
		}
		if !b.side[1].Empty() {
			_, k1 = b.side[1].Min()
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
		q, other := &b.side[side], &b.side[1-side]
		v, d := q.Pop()
		settled++
		lo, hi := b.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			w := b.g.Head(a)
			nd := d + int64(b.g.ArcWeight(a))
			q.Visit(w, nd, v)
			// Check for a crossing through w.
			if l := other.Labels[w]; l.Gen == other.Cur {
				if total := nd + l.Dist; total < best {
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
		path = b.side[0].AppendParents(path, r.Meet)
		slices.Reverse(path)
		path = b.side[1].AppendParents(path, r.Meet)
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
