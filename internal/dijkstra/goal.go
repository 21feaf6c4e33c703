package dijkstra

import (
	"context"
	"slices"

	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// SettleFunc is a goal-directed technique's settle loop: a unidirectional
// search from src on the labels of s that returns whether t was settled,
// leaving Dist[t] and the Parent chain behind it. The loop owns everything
// that makes the technique what it is — the heap key, which arcs it relaxes
// — and must count settled vertices in s.Settled and poll ctx every
// cancel.Interval of them, aborting with ctx's error. GoalSearcher has
// already stamped a fresh generation when it calls the loop.
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
	// Dist[v] and Parent[v] are set for the current query iff
	// Gen[v] == Cur; Parent is -1 at the source.
	Dist   []int64
	Parent []int32
	Gen    []uint32
	Cur    uint32
	Heap   *pq.Heap
	// Settled counts the vertices the current query has settled.
	Settled int

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
	return &GoalSearcher{
		Dist:   make([]int64, n),
		Parent: make([]int32, n),
		Gen:    make([]uint32, n),
		Heap:   pq.New(n),
		settle: settle,
	}
}

// run opens a fresh generation and runs the settle loop.
func (s *GoalSearcher) run(ctx context.Context, src, t graph.VertexID) (bool, error) {
	s.Cur++
	if s.Cur == 0 { // uint32 wrap: invalidate everything explicitly
		clear(s.Gen)
		s.Cur = 1
	}
	s.Heap.Clear()
	s.Settled = 0
	return s.settle(ctx, s, src, t)
}

// Distance answers a distance query.
func (s *GoalSearcher) Distance(src, t graph.VertexID) int64 {
	d, _ := s.DistanceContext(context.Background(), src, t)
	return d
}

// ShortestPath answers a shortest-path query.
func (s *GoalSearcher) ShortestPath(src, t graph.VertexID) ([]graph.VertexID, int64) {
	path, d, _ := s.ShortestPathContext(context.Background(), src, t)
	return path, d
}

// DistanceContext is Distance with cancellation (see SettleFunc). An
// already-cancelled context aborts before any work, trivial src == t
// queries included.
func (s *GoalSearcher) DistanceContext(ctx context.Context, src, t graph.VertexID) (int64, error) {
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	if src == t {
		return 0, nil
	}
	found, err := s.run(ctx, src, t)
	if err != nil || !found {
		return graph.Infinity, err
	}
	return s.Dist[t], nil
}

// ShortestPathContext is ShortestPath with cancellation. It is a thin
// collector over OpenPath: the iterator is drained into a fresh
// caller-owned slice.
func (s *GoalSearcher) ShortestPathContext(ctx context.Context, src, t graph.VertexID) ([]graph.VertexID, int64, error) {
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

// OpenPath runs the query and returns a PathIterator over the shortest path
// plus its length, or (nil, Infinity, nil) when t is unreachable. The
// parent walk is assembled into searcher-owned scratch, so streaming a path
// allocates nothing in steady state; the iterator is invalidated by this
// searcher's next query.
func (s *GoalSearcher) OpenPath(ctx context.Context, src, t graph.VertexID) (graph.PathIterator, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, graph.Infinity, err
	}
	if src == t {
		s.pathBuf = append(s.pathBuf[:0], src)
		s.pathIter.Reset(s.pathBuf)
		return &s.pathIter, 0, nil
	}
	found, err := s.run(ctx, src, t)
	if err != nil || !found {
		return nil, graph.Infinity, err
	}
	rev := s.pathBuf[:0]
	for v := t; v >= 0; v = graph.VertexID(s.Parent[v]) {
		rev = append(rev, v)
	}
	slices.Reverse(rev)
	s.pathBuf = rev
	s.pathIter.Reset(rev)
	return &s.pathIter, s.Dist[t], nil
}

// SettledLast reports the vertices settled by the last query.
func (s *GoalSearcher) SettledLast() int { return s.Settled }
