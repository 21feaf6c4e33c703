// Package alt implements ALT (A*, Landmarks, Triangle inequality) of
// Goldberg and Harrelson, surveyed in the paper's Appendix A as related
// work: a small set of landmarks is selected, the distance from every
// vertex to every landmark is precomputed, and queries run A* with the
// lower bound max_L |dist(L, t) - dist(L, v)| derived from the triangle
// inequality.
//
// The landmark table is vertex-major: the L distances of one vertex are one
// contiguous run of int32s, so the bound at v reads one run of L words (64
// bytes, one cache line, at 16 landmarks) beside the target's. An
// unreachable landmark is stored as unknown. A landmark reaches a whole
// component or none of it, so s and t have unknown at the same entries
// exactly when they share a component or lie in two that no landmark
// reaches; any other query is answered unreachable without a search. In a
// search every vertex then has unknown where t has it, unknown - unknown
// adds 0, and the bound is the max over all L entries with no test per
// landmark, consistent within the query. A landmark with a finite distance
// an int32 cannot hold is dropped from the table at every vertex, so that
// unknown stays a property of whole components. A queued vertex keeps its
// bound in its heap key, key = dist + bound, so lowering its label re-keys
// it without reading the table again.
//
// The paper cites prior results showing ALT is dominated by CH in both
// space and query time; this implementation exists so that the claim can be
// checked on our testbed, which EXPERIMENTS.md's Appendix A extensions
// table does.
package alt

import (
	"context"
	"math"
	"slices"

	"roadnet/internal/cancel"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// numLandmarks is how many landmarks Build selects, fewer on a graph with
// fewer vertices.
const numLandmarks = 16

// Index is a built ALT index. The landmark tables are immutable after
// Build, so one Index may be shared by any number of goroutines; per-query
// mutable state lives in a searcher (create one per goroutine with
// NewSearcher).
type Index struct {
	g         *graph.Graph
	landmarks []graph.VertexID
	// table[v*L+l] = dist(landmarks[l], v) for L = len(landmarks), or
	// unknown if landmarks[l] is unreachable from v.
	table []int32
}

// NewSearcher returns a fresh A* query context sharing ix's immutable
// landmark tables.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, q: pq.NewSearch(ix.g.NumVertices())}
}

// Build selects landmarks by farthest-point traversal and precomputes the
// landmark distance tables. The traversal starts at vertex 0; once no
// vertex the landmarks reach is at a positive distance from all of them,
// it goes on at the lowest-id vertex no landmark reaches, so every
// component gets landmarks and no vertex is selected twice.
func Build(g *graph.Graph) *Index {
	n := g.NumVertices()
	ix := &Index{g: g}
	ctx := dijkstra.NewContext(g)
	// Farthest-point selection: repeatedly add the vertex maximizing the
	// minimum distance to the chosen landmarks.
	minDist := make([]int64, n)
	for i := range minDist {
		minDist[i] = graph.Infinity
	}
	cur := graph.VertexID(0)
	var rows [][]int64 // rows[l][v], transposed into the table at the end
	for len(ix.landmarks) < min(numLandmarks, n) {
		ix.landmarks = append(ix.landmarks, cur)
		ctx.Run([]graph.VertexID{cur}, dijkstra.Options{})
		row := make([]int64, n)
		for v := 0; v < n; v++ {
			row[v] = ctx.Dist(graph.VertexID(v))
		}
		rows = append(rows, row)
		next, unreached := graph.VertexID(-1), graph.VertexID(-1)
		var nextDist int64
		for v := 0; v < n; v++ {
			minDist[v] = min(minDist[v], row[v])
			if minDist[v] == graph.Infinity {
				if unreached < 0 {
					unreached = graph.VertexID(v)
				}
			} else if minDist[v] > nextDist {
				nextDist = minDist[v]
				next = graph.VertexID(v)
			}
		}
		if next < 0 {
			next = unreached
		}
		if next < 0 {
			break
		}
		cur = next
	}
	// Drop every landmark with a finite distance of unknown or more: storing
	// only those entries as unknown would drop it at some vertices of a
	// component and keep it at others, and the A* loop, which never
	// reopens a vertex, needs the bound consistent.
	tooFar := func(d int64) bool { return d >= unknown && d < graph.Infinity }
	landmarks, kept := ix.landmarks[:0], rows[:0]
	for l, row := range rows {
		if !slices.ContainsFunc(row, tooFar) {
			landmarks, kept = append(landmarks, ix.landmarks[l]), append(kept, row)
		}
	}
	ix.landmarks = landmarks
	k := len(kept)
	ix.table = make([]int32, n*k)
	for l, row := range kept {
		for v, d := range row {
			ix.table[v*k+l] = int32(min(d, unknown))
		}
	}
	return ix
}

// unknown is the table entry of an unreachable landmark.
const unknown = math.MaxInt32

// row returns v's landmark distances.
func (ix *Index) row(v graph.VertexID) []int32 {
	k := len(ix.landmarks)
	return ix.table[int(v)*k : int(v)*k+k]
}

// potential returns the ALT lower bound on dist(v, t), where rt is t's row
// and v's row has unknown where rt has it (search checks it at s).
func (ix *Index) potential(v graph.VertexID, rt []int32) int64 {
	rv := ix.row(v)[:len(rt)]
	var best int32
	for l, dt := range rt {
		d := rv[l] - dt
		best = max(best, d, -d)
	}
	return int64(best)
}

// SizeBytes reports the landmark table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.table))*4 + int64(len(ix.landmarks))*4
}

// Searcher answers queries on an Index by A*. A Searcher is not safe for
// concurrent use; create one per goroutine.
type Searcher struct {
	ix *Index
	// q holds the labels and the frontier of the current query.
	q pq.Search

	// pathBuf and pathIter are the searcher-owned scratch behind OpenPath:
	// the parent walk is assembled into pathBuf (reused across queries) and
	// streamed from pathIter.
	pathBuf  []graph.VertexID
	pathIter graph.SlicePath
}

// search runs A* from src to t, keyed by the label plus the landmark lower
// bound on the rest of the way, and reports whether t was settled, leaving
// its label and the parent chain behind it. An already-cancelled context
// aborts before any work, trivial src == t queries included.
func (s *Searcher) search(ctx context.Context, src, t graph.VertexID) (bool, error) {
	s.q.Reset()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	ix, q, rt := s.ix, &s.q, s.ix.row(t)
	q.Labels[src] = pq.Label{Dist: 0, Parent: -1, Gen: q.Cur}
	if src == t {
		return true, nil
	}
	for l, ds := range ix.row(src) { // unreachable: see the package doc
		if (ds == unknown) != (rt[l] == unknown) {
			return false, nil
		}
	}
	q.Push(src, ix.potential(src, rt))
	for !q.Empty() {
		if err := cancel.Poll(ctx, q.Settled); err != nil {
			return false, err
		}
		v, _ := q.Pop()
		if v == t {
			return true, nil
		}
		d := q.Labels[v].Dist
		lo, hi := ix.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			w := ix.g.Head(a)
			nd := d + int64(ix.g.ArcWeight(a))
			if l := &q.Labels[w]; l.Gen != q.Cur {
				*l = pq.Label{Dist: nd, Parent: v, Gen: q.Cur}
				q.Push(w, nd+ix.potential(w, rt))
			} else if nd < l.Dist && q.Contains(w) {
				q.Push(w, q.Key(w)-l.Dist+nd) // the key holds w's bound
				l.Dist, l.Parent = nd, v
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

// DistanceContext is Distance with cancellation: the search polls ctx every
// cancel.Interval settled vertices and aborts with ctx's error.
func (s *Searcher) DistanceContext(ctx context.Context, src, t graph.VertexID) (int64, error) {
	if found, err := s.search(ctx, src, t); !found {
		return graph.Infinity, err
	}
	return s.q.Labels[t].Dist, nil
}

// OpenPath runs the query and returns a PathIterator over the shortest path
// plus its length, or (nil, Infinity, nil) when t is unreachable. The
// parent walk is assembled into searcher-owned scratch, so streaming a path
// allocates nothing in steady state; the iterator is invalidated by this
// searcher's next query.
func (s *Searcher) OpenPath(ctx context.Context, src, t graph.VertexID) (graph.PathIterator, int64, error) {
	if found, err := s.search(ctx, src, t); !found {
		return nil, graph.Infinity, err
	}
	s.pathBuf = s.q.AppendParents(append(s.pathBuf[:0], t), t)
	slices.Reverse(s.pathBuf)
	s.pathIter.Reset(s.pathBuf)
	return &s.pathIter, s.q.Labels[t].Dist, nil
}

// SettledLast reports the vertices settled by the last query: 0 after one
// that searched nothing.
func (s *Searcher) SettledLast() int { return s.q.Settled }
