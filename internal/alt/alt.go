// Package alt implements ALT (A*, Landmarks, Triangle inequality) of
// Goldberg and Harrelson, surveyed in the paper's Appendix A as related
// work: a small set of landmarks is selected, the distance from every
// vertex to every landmark is precomputed, and queries run A* with the
// lower bound max_L |dist(L, t) - dist(L, v)| derived from the triangle
// inequality.
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
	// distTo[l][v] = dist(landmarks[l], v); the graph is undirected, so one
	// table serves both bound directions.
	distTo [][]int64

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
	for len(ix.landmarks) < opts.NumLandmarks {
		ix.landmarks = append(ix.landmarks, cur)
		ctx.Run([]graph.VertexID{cur}, dijkstra.Options{})
		row := make([]int64, n)
		for v := 0; v < n; v++ {
			row[v] = ctx.Dist(graph.VertexID(v))
		}
		ix.distTo = append(ix.distTo, row)
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
	ix.buildTime = time.Since(start)
	return ix
}

// potential returns the ALT lower bound on dist(v, t).
func (ix *Index) potential(v, t graph.VertexID) int64 {
	var best int64
	for l := range ix.landmarks {
		dv, dt := ix.distTo[l][v], ix.distTo[l][t]
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
	s.Gen[src] = s.Cur
	s.Dist[src] = 0
	s.Parent[src] = -1
	s.Heap.Push(src, ix.potential(src, t))
	for !s.Heap.Empty() {
		if err := cancel.Poll(ctx, s.Settled); err != nil {
			return false, err
		}
		v, _ := s.Heap.Pop()
		s.Settled++
		if v == t {
			return true, nil
		}
		d := s.Dist[v]
		lo, hi := ix.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			w := ix.g.Head(a)
			nd := d + int64(ix.g.ArcWeight(a))
			if s.Gen[w] != s.Cur {
				s.Gen[w] = s.Cur
				s.Dist[w] = nd
				s.Parent[w] = int32(v)
				s.Heap.Push(w, nd+ix.potential(w, t))
			} else if nd < s.Dist[w] && s.Heap.Contains(w) {
				s.Dist[w] = nd
				s.Parent[w] = int32(v)
				s.Heap.Push(w, nd+ix.potential(w, t))
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
	var size int64
	for _, row := range ix.distTo {
		size += int64(len(row)) * 8
	}
	return size + int64(len(ix.landmarks))*4
}
