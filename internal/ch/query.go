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

	// side[0] is the upward search from the source, side[1] the one from
	// the target.
	side [2]pq.Search

	// lastMeet caches the meeting vertex of the last query for path
	// reconstruction.
	lastMeet graph.VertexID
	lastDist int64
	// settledCount of the last query, for search-space statistics.
	settledCount int

	// Path-production scratch, reused across queries so streaming a path
	// allocates nothing in steady state: augBuf holds the augmented
	// (shortcut-level) path and unpack the lazy expansion iterator over it.
	augBuf []graph.VertexID
	unpack unpackIter
}

// NewSearcher returns a fresh query context for h.
func (h *Hierarchy) NewSearcher() *Searcher {
	n := h.g.NumVertices()
	return &Searcher{h: h, lastMeet: -1, side: [2]pq.Search{pq.NewSearch(n), pq.NewSearch(n)}}
}

func (s *Searcher) reset() {
	s.side[0].Reset()
	s.side[1].Reset()
	s.lastMeet = -1
	s.lastDist = graph.Infinity
	s.settledCount = 0
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
	s.side[0].Visit(from, 0, -1)
	s.side[1].Visit(to, 0, -1)
	h := s.h
	best := graph.Infinity
	meet := graph.VertexID(-1)

	for {
		if err := cancel.Poll(ctx, s.settledCount); err != nil {
			return err
		}
		k0, k1 := graph.Infinity, graph.Infinity
		if !s.side[0].Empty() {
			_, k0 = s.side[0].Min()
		}
		if !s.side[1].Empty() {
			_, k1 = s.side[1].Min()
		}
		if k0 >= best && k1 >= best {
			break
		}
		side := 0
		if k1 < k0 {
			side = 1
		}
		if s.side[side].Empty() {
			side = 1 - side
		}
		q, other := &s.side[side], &s.side[1-side]
		v, d := q.Pop()
		s.settledCount++
		// Meeting check: v settled in this side; if the other side has
		// reached it, the concatenation is a candidate.
		if l := other.Labels[v]; l.Gen == other.Cur {
			if total := d + l.Dist; total < best {
				best = total
				meet = v
			}
		}
		// Stall-on-demand: a shorter path to v through a higher-ranked
		// neighbor proves v's outgoing arcs useless for shortest paths.
		if !s.DisableStalling && h.stalled(v, d, q) {
			continue
		}
		for a := h.firstUp[v]; a < h.firstUp[v+1]; a++ {
			q.Visit(h.upHead[a], d+int64(h.upWeight[a]), v)
		}
	}
	s.lastDist = best
	s.lastMeet = meet
	return nil
}

// stalled is the stall-on-demand test shared by the point-to-point and the
// many-to-many upward searches: v, settled at label d, is stalled when some
// upward neighbour w reached by search q offers dist[w] + w(v, w) < d. Arcs
// are symmetric, so the shorter path through w proves d inexact.
func (h *Hierarchy) stalled(v graph.VertexID, d int64, q *pq.Search) bool {
	labels, cur := q.Labels, q.Cur
	for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
		if l := &labels[h.upHead[a]]; l.Gen == cur && l.Dist+int64(h.upWeight[a]) < d {
			return true
		}
	}
	return false
}
