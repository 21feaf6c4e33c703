// Package alt implements ALT (A*, Landmarks, Triangle inequality) of
// Goldberg and Harrelson, surveyed in the paper's Appendix A as related
// work: a small set of landmarks is selected, the distance from every
// vertex to every landmark is precomputed, and queries run A* with the
// lower bound max_L |dist(L, t) - dist(L, v)| derived from the triangle
// inequality.
//
// The landmark table is vertex-major: the L distances of one vertex are one
// contiguous run, so the bound at v reads one run of L words (128 bytes at
// the default 16) beside the target's. A queued vertex keeps its bound in
// its heap key, key = dist + bound, so lowering its label re-keys it without
// reading the table again.
//
// The paper cites prior results showing ALT is dominated by CH in both
// space and query time; this implementation exists so that the claim can be
// checked on our testbed (see the ablation benchmarks).
package alt

import (
	"context"
	"time"

	"roadnet/internal/cancel"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// Options configures Build.
type Options struct {
	// NumLandmarks is the number of landmarks (default 16).
	NumLandmarks int
	// Seed selects the first landmark (farthest-point selection is then
	// deterministic).
	Seed int64
}

// Index is a built ALT index. The landmark tables are immutable after
// Build, so one Index may be shared by any number of goroutines; per-query
// mutable state lives in a searcher (create one per goroutine with
// NewSearcher).
type Index struct {
	g         *graph.Graph
	landmarks []graph.VertexID
	// table[v*L+l] = dist(landmarks[l], v) for L = len(landmarks).
	table []int64

	buildTime time.Duration
}

// NewSearcher returns a fresh A* query context sharing ix's immutable
// landmark tables: the shared goal-directed searcher around ix's settle
// loop.
func (ix *Index) NewSearcher() *dijkstra.GoalSearcher {
	return dijkstra.NewGoalSearcher(ix.g.NumVertices(), ix.settle)
}

// Build selects landmarks by farthest-point traversal and precomputes the
// landmark distance tables.
func Build(g *graph.Graph, opts Options) *Index {
	start := time.Now()
	n := g.NumVertices()
	if opts.NumLandmarks <= 0 {
		opts.NumLandmarks = 16
	}
	if opts.NumLandmarks > n {
		opts.NumLandmarks = n
	}
	ix := &Index{g: g}
	ctx := dijkstra.NewContext(g)
	// Farthest-point selection: start anywhere, repeatedly add the vertex
	// maximizing the minimum distance to the chosen landmarks.
	first := graph.VertexID(opts.Seed % int64(n))
	if first < 0 {
		first += graph.VertexID(n)
	}
	minDist := make([]int64, n)
	for i := range minDist {
		minDist[i] = graph.Infinity
	}
	cur := first
	var rows [][]int64 // rows[l][v], transposed into the table at the end
	for len(ix.landmarks) < opts.NumLandmarks {
		ix.landmarks = append(ix.landmarks, cur)
		ctx.Run([]graph.VertexID{cur}, dijkstra.Options{})
		row := make([]int64, n)
		for v := 0; v < n; v++ {
			row[v] = ctx.Dist(graph.VertexID(v))
		}
		rows = append(rows, row)
		next := graph.VertexID(-1)
		var nextDist int64 = -1
		for v := 0; v < n; v++ {
			if row[v] < graph.Infinity && row[v] < minDist[v] {
				minDist[v] = row[v]
			}
			if minDist[v] < graph.Infinity && minDist[v] > nextDist {
				nextDist = minDist[v]
				next = graph.VertexID(v)
			}
		}
		if next < 0 || next == cur {
			break
		}
		cur = next
	}
	k := len(ix.landmarks)
	ix.table = make([]int64, n*k)
	for l, row := range rows {
		for v, d := range row {
			ix.table[v*k+l] = d
		}
	}
	ix.buildTime = time.Since(start)
	return ix
}

// row returns v's landmark distances.
func (ix *Index) row(v graph.VertexID) []int64 {
	k := len(ix.landmarks)
	return ix.table[int(v)*k : int(v)*k+k]
}

// potential returns the ALT lower bound on dist(v, t), where rt is t's row.
func (ix *Index) potential(v graph.VertexID, rt []int64) int64 {
	rv := ix.row(v)[:len(rt)]
	var best int64
	for l, dt := range rt {
		dv := rv[l]
		if dv >= graph.Infinity || dt >= graph.Infinity {
			continue
		}
		if d := dv - dt; d > best {
			best = d
		} else if d := dt - dv; d > best {
			best = d
		}
	}
	return best
}

// settle is ALT's dijkstra.SettleFunc: A* from src to t, keyed by the
// label plus the landmark lower bound on the rest of the way.
func (ix *Index) settle(ctx context.Context, s *dijkstra.GoalSearcher, src, t graph.VertexID) (bool, error) {
	q, rt := &s.Search, ix.row(t)
	q.Labels[src] = pq.Label{Dist: 0, Parent: -1, Gen: q.Cur}
	q.Push(src, ix.potential(src, rt))
	for !q.Empty() {
		if err := cancel.Poll(ctx, s.Settled); err != nil {
			return false, err
		}
		v, _ := q.Pop()
		s.Settled++
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

// NumLandmarks returns the number of selected landmarks.
func (ix *Index) NumLandmarks() int { return len(ix.landmarks) }

// BuildTime returns the preprocessing duration.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// SizeBytes reports the landmark table footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.table))*8 + int64(len(ix.landmarks))*4
}
