package ch

import (
	"context"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// Searcher is a reusable query context over a Hierarchy. Queries run the
// modified bidirectional Dijkstra of §3.2: both traversals relax only arcs
// leading to higher-ranked vertices, and the searches may not stop at the
// first meeting vertex — they continue until the frontier keys reach the
// best distance found ("there exist a few conditions that a traversal
// should fulfill before it can terminate").
//
// Stall-on-demand: when a vertex v is settled, the searcher checks whether
// some already-reached higher neighbor w proves a shorter path to v
// (dist[w] + w(v, w) < dist[v], valid because the graph is undirected). A
// stalled vertex's arcs cannot lie on a shortest path, so they are not
// relaxed, shrinking the upward search space. Disable with DisableStalling
// to measure the effect (see BenchmarkAblationCHStalling).
//
// A Searcher is not safe for concurrent use; create one per goroutine.
type Searcher struct {
	h *Hierarchy

	// DisableStalling turns off the stall-on-demand optimization.
	DisableStalling bool

	dist   [2][]int64
	parent [2][]int32
	gen    [2][]uint32
	cur    [2]uint32
	heap   [2]*pq.Heap

	// lastMeet caches the meeting vertex of the last query for path
	// reconstruction.
	lastMeet graph.VertexID
	lastDist int64
	// settledCount of the last query, for search-space statistics.
	settledCount int

	// Path-production scratch, reused across queries so streaming a path
	// allocates nothing in steady state: upBuf holds the side-0 parent
	// chain, augBuf the augmented (shortcut-level) path, unpack the lazy
	// expansion iterator and pathIter the trivial single-vertex case.
	upBuf    []graph.VertexID
	augBuf   []graph.VertexID
	unpack   unpackIter
	pathIter graph.SlicePath
}

// NewSearcher returns a fresh query context for h.
func (h *Hierarchy) NewSearcher() *Searcher {
	n := h.g.NumVertices()
	s := &Searcher{h: h, lastMeet: -1}
	for side := 0; side < 2; side++ {
		s.dist[side] = make([]int64, n)
		s.parent[side] = make([]int32, n)
		s.gen[side] = make([]uint32, n)
		s.heap[side] = pq.New(n)
	}
	return s
}

func (s *Searcher) reset() {
	for side := 0; side < 2; side++ {
		s.cur[side]++
		if s.cur[side] == 0 {
			for i := range s.gen[side] {
				s.gen[side][i] = 0
			}
			s.cur[side] = 1
		}
		s.heap[side].Clear()
	}
	s.lastMeet = -1
	s.lastDist = graph.Infinity
	s.settledCount = 0
}

func (s *Searcher) visit(side int, v graph.VertexID, d int64, parent int32) {
	if s.gen[side][v] != s.cur[side] {
		s.gen[side][v] = s.cur[side]
		s.dist[side][v] = d
		s.parent[side][v] = parent
		s.heap[side].Push(v, d)
	} else if d < s.dist[side][v] && s.heap[side].Contains(v) {
		s.dist[side][v] = d
		s.parent[side][v] = parent
		s.heap[side].Push(v, d)
	}
}

// Distance returns dist(s, t), or graph.Infinity when t is unreachable.
func (s *Searcher) Distance(from, to graph.VertexID) int64 {
	s.run(from, to)
	return s.lastDist
}

// DistanceContext is Distance with cancellation: the upward searches poll
// ctx every cancel.Interval settled vertices and abort with its error.
func (s *Searcher) DistanceContext(ctx context.Context, from, to graph.VertexID) (int64, error) {
	if err := s.runCtx(ctx, from, to); err != nil {
		return graph.Infinity, err
	}
	return s.lastDist, nil
}

// SettledLast returns how many vertices the two upward searches of the last
// query settled, for search-space comparisons against plain Dijkstra.
func (s *Searcher) SettledLast() int { return s.settledCount }

func (s *Searcher) run(from, to graph.VertexID) {
	_ = s.runCtx(context.Background(), from, to)
}

func (s *Searcher) runCtx(ctx context.Context, from, to graph.VertexID) error {
	// Per the cancellation contract, an already-cancelled context aborts
	// before any work, trivial from == to queries included.
	if err := ctx.Err(); err != nil {
		return err
	}
	s.reset()
	if from == to {
		s.lastDist = 0
		s.lastMeet = from
		return nil
	}
	s.visit(0, from, 0, -1)
	s.visit(1, to, 0, -1)
	h := s.h
	best := graph.Infinity
	meet := graph.VertexID(-1)

	for {
		if err := cancel.Poll(ctx, s.settledCount); err != nil {
			return err
		}
		k0, k1 := graph.Infinity, graph.Infinity
		if !s.heap[0].Empty() {
			_, k0 = s.heap[0].Min()
		}
		if !s.heap[1].Empty() {
			_, k1 = s.heap[1].Min()
		}
		if k0 >= best && k1 >= best {
			break
		}
		side := 0
		if k1 < k0 {
			side = 1
		}
		if s.heap[side].Empty() {
			side = 1 - side
		}
		v, d := s.heap[side].Pop()
		s.settledCount++
		// Meeting check: v settled in this side; if the other side has
		// reached it, the concatenation is a candidate.
		other := 1 - side
		if s.gen[other][v] == s.cur[other] {
			if total := d + s.dist[other][v]; total < best {
				best = total
				meet = v
			}
		}
		// Stall-on-demand: a shorter path to v through a higher-ranked
		// neighbor proves v's outgoing arcs useless for shortest paths.
		if !s.DisableStalling && h.stalled(v, d, s.dist[side], s.gen[side], s.cur[side]) {
			continue
		}
		for a := h.firstUp[v]; a < h.firstUp[v+1]; a++ {
			s.visit(side, h.upHead[a], d+int64(h.upWeight[a]), int32(v))
		}
	}
	s.lastDist = best
	s.lastMeet = meet
	return nil
}

// stalled is the stall-on-demand test shared by the point-to-point and the
// many-to-many upward searches: v, settled at label d, is stalled when some
// reached upward neighbour w (gen[w] == cur) offers dist[w] + w(v, w) < d.
// Arcs are symmetric, so the shorter path through w proves d inexact.
func (h *Hierarchy) stalled(v graph.VertexID, d int64, dist []int64, gen []uint32, cur uint32) bool {
	for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
		if w := h.upHead[a]; gen[w] == cur && dist[w]+int64(h.upWeight[a]) < d {
			return true
		}
	}
	return false
}

// ShortestPath returns the exact shortest path in the original graph
// (shortcuts unpacked) and its length.
func (s *Searcher) ShortestPath(from, to graph.VertexID) ([]graph.VertexID, int64) {
	path, d, _ := s.ShortestPathContext(context.Background(), from, to)
	return path, d
}

// ShortestPathContext is ShortestPath with cancellation (see
// DistanceContext). It is a thin collector over OpenPath: the lazy unpack
// iterator is drained into a fresh caller-owned slice.
func (s *Searcher) ShortestPathContext(ctx context.Context, from, to graph.VertexID) ([]graph.VertexID, int64, error) {
	it, d, err := s.OpenPath(ctx, from, to)
	if err != nil || it == nil {
		return nil, graph.Infinity, err
	}
	path, err := graph.AppendPath(make([]graph.VertexID, 0, 2*len(s.augBuf)), it)
	if err != nil {
		return nil, graph.Infinity, err
	}
	return path, d, nil
}
