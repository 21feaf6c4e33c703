package dijkstra

import (
	"context"
	"slices"

	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// SettleFunc is a goal-directed technique's settle loop: a unidirectional
// search from src on s.Search that returns whether t was settled, leaving
// t's label and the parent chain behind it. The loop owns everything
// that makes the technique what it is — the heap key, which arcs it relaxes
// — and must poll ctx every cancel.Interval settled vertices, reading
// s.Search.Settled, which the search's Pop counts, and abort with ctx's
// error. GoalSearcher has already reset s.Search when it calls the loop.
type SettleFunc func(ctx context.Context, s *GoalSearcher, src, t graph.VertexID) (found bool, err error)

// GoalSearcher is the searcher shared by the goal-directed unidirectional
// techniques (ALT's A*, arc-flags' pruned Dijkstra): the labels, their O(1)
// invalidation between queries, the query methods of the searcher contract
// and the parent walk, around a SettleFunc the technique supplies. The
// label fields are exported for that loop, which lives in the technique's
// package with its relaxation inlined; the shell calls it once per query
// and never looks at which technique it serves.
//
// A GoalSearcher is not safe for concurrent use; create one per goroutine.
type GoalSearcher struct {
	// Search holds the labels and the frontier of the current query.
	Search pq.Search

	settle SettleFunc

	// pathBuf and pathIter are the searcher-owned scratch behind OpenPath:
	// the parent walk is assembled into pathBuf (reused across queries) and
	// streamed from pathIter.
	pathBuf  []graph.VertexID
	pathIter graph.SlicePath
}

// NewGoalSearcher returns a searcher for graphs of n vertices that answers
// queries with settle.
func NewGoalSearcher(n int, settle SettleFunc) *GoalSearcher {
	return &GoalSearcher{Search: pq.NewSearch(n), settle: settle}
}

// Distance answers a distance query.
func (s *GoalSearcher) Distance(src, t graph.VertexID) int64 {
	d, _ := s.DistanceContext(context.Background(), src, t)
	return d
}

// DistanceContext is Distance with cancellation (see SettleFunc). An
// already-cancelled context aborts before any work, trivial src == t
// queries included.
func (s *GoalSearcher) DistanceContext(ctx context.Context, src, t graph.VertexID) (int64, error) {
	s.Search.Reset()
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	if src == t {
		return 0, nil
	}
	found, err := s.settle(ctx, s, src, t)
	if err != nil || !found {
		return graph.Infinity, err
	}
	return s.Search.Labels[t].Dist, nil
}

// OpenPath runs the query and returns a PathIterator over the shortest path
// plus its length, or (nil, Infinity, nil) when t is unreachable. The
// parent walk is assembled into searcher-owned scratch, so streaming a path
// allocates nothing in steady state; the iterator is invalidated by this
// searcher's next query.
func (s *GoalSearcher) OpenPath(ctx context.Context, src, t graph.VertexID) (graph.PathIterator, int64, error) {
	s.Search.Reset()
	if err := ctx.Err(); err != nil {
		return nil, graph.Infinity, err
	}
	if src == t {
		s.pathBuf = append(s.pathBuf[:0], src)
		s.pathIter.Reset(s.pathBuf)
		return &s.pathIter, 0, nil
	}
	found, err := s.settle(ctx, s, src, t)
	if err != nil || !found {
		return nil, graph.Infinity, err
	}
	rev := s.Search.AppendParents(append(s.pathBuf[:0], t), t)
	slices.Reverse(rev)
	s.pathBuf = rev
	s.pathIter.Reset(rev)
	return &s.pathIter, s.Search.Labels[t].Dist, nil
}

// SettledLast reports the vertices settled by the last query: 0 after one
// that searched nothing.
func (s *GoalSearcher) SettledLast() int { return s.Search.Settled }
