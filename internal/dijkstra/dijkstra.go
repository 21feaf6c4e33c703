// Package dijkstra implements Dijkstra's algorithm and the bidirectional
// variant of Pohl that the paper uses as its baseline (§3.1). Each keeps one
// 16-byte label per vertex and direction beside its queue, allocated once
// per searcher and invalidated between queries by its generation stamp, so
// a query costs what it settles. Context queues on a pq.Search, a binary
// heap; Bidirectional queues each direction on a pq.RingSearch, a bucket
// ring sized by the graph's largest arc weight.
//
// The unidirectional search doubles as the ground truth in tests and runs
// the target-stopped access-node searches of TNR's preprocessing and ALT's
// few landmark sweeps. The one-to-all sweeps of SILC, PCPD and arc-flags,
// one per vertex, go through the hierarchy instead (ch.Sweeper).
package dijkstra

import (
	"context"
	"slices"
	"sort"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// Context holds the per-search state for unidirectional Dijkstra runs on a
// fixed graph. A Context is not safe for concurrent use; create one context
// per goroutine.
type Context struct {
	g *graph.Graph
	q pq.Search

	// target marking, stamped with q.Cur so Run does not pay O(n) setup
	targetGen []uint32

	// settled vertices of the last run, in settle order
	settled []graph.VertexID
}

// NewContext returns a context for searches on g.
func NewContext(g *graph.Graph) *Context {
	n := g.NumVertices()
	return &Context{
		g:         g,
		q:         pq.NewSearch(n),
		targetGen: make([]uint32, n),
	}
}

func (c *Context) reset() {
	if c.q.Reset() {
		clear(c.targetGen)
	}
	c.settled = c.settled[:0]
}

// Dist returns the distance of v computed by the last search, or
// graph.Infinity if v was not reached.
func (c *Context) Dist(v graph.VertexID) int64 {
	if !c.q.Reached(v) {
		return graph.Infinity
	}
	return c.q.Labels[v].Dist
}

// Reached reports whether v was reached (settled or queued) by the last search.
func (c *Context) Reached(v graph.VertexID) bool { return c.q.Reached(v) }

// Settled returns the vertices settled by the last search in settle order.
// The slice is reused between runs; callers must not retain it.
func (c *Context) Settled() []graph.VertexID { return c.settled }

// PathTo reconstructs the path from the source of the last search to t as a
// vertex sequence, or nil if t was not reached.
func (c *Context) PathTo(t graph.VertexID) []graph.VertexID {
	if !c.q.Reached(t) {
		return nil
	}
	path := c.q.AppendParents([]graph.VertexID{t}, t)
	slices.Reverse(path)
	return path
}

// Options controls optional termination rules of Run.
type Options struct {
	// Targets, when non-nil, stops the search once all target vertices have
	// been settled (or the queue empties).
	Targets []graph.VertexID
	// MaxDist, when positive, stops the search once the minimum queue key
	// exceeds MaxDist; vertices beyond it are left unreached.
	MaxDist int64
	// SettleTies, combined with Targets, keeps settling until the queue
	// minimum exceeds the distance of the last settled target, so that
	// every vertex at least as close as the farthest target is settled.
	// TNR's access-node computation needs this to cover tied shortest
	// paths exactly.
	SettleTies bool
}

// Run executes Dijkstra's algorithm from the given sources (multi-source is
// used by preprocessing code) and returns the number of settled vertices.
func (c *Context) Run(sources []graph.VertexID, opt Options) int {
	n, _ := c.RunContext(context.Background(), sources, opt)
	return n
}

// RunContext is Run with cancellation: the settle loop polls ctx every
// cancel.Interval settles and aborts with its error, leaving the context
// in the partial state of the interrupted search. The network range query
// runs its bounded search through this so a disconnected client stops
// consuming CPU within a bounded number of settles.
func (c *Context) RunContext(ctx context.Context, sources []graph.VertexID, opt Options) (int, error) {
	c.reset()
	for _, s := range sources {
		c.q.Visit(s, 0, -1)
	}
	remaining := 0
	haveTargets := opt.Targets != nil
	if haveTargets {
		for _, t := range opt.Targets {
			if c.targetGen[t] != c.q.Cur {
				c.targetGen[t] = c.q.Cur
				remaining++
			}
		}
	}
	tieBound := int64(-1)
	for !c.q.Empty() {
		if err := cancel.Poll(ctx, len(c.settled)); err != nil {
			return len(c.settled), err
		}
		v, d := c.q.Pop()
		if opt.MaxDist > 0 && d > opt.MaxDist {
			return len(c.settled), nil
		}
		if tieBound >= 0 && d > tieBound {
			return len(c.settled), nil
		}
		c.settled = append(c.settled, v)
		if haveTargets && c.targetGen[v] == c.q.Cur {
			remaining--
			if remaining == 0 {
				if !opt.SettleTies {
					return len(c.settled), nil
				}
				tieBound = d
			}
		}
		lo, hi := c.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			c.q.Visit(c.g.Head(a), d+int64(c.g.ArcWeight(a)), v)
		}
	}
	return len(c.settled), nil
}

// KNearest returns the k vertices nearest to s by network distance,
// excluding s itself, ordered by (distance, id) ascending — the bounded
// search settles until k vertices are found, then keeps settling ties of
// the k-th distance so the (distance, id)-minimal set is exact. Distances
// are available via Dist afterwards. This is the one search behind the
// spatial tier's k-NN: every vertex is a candidate, so the ball it settles
// is the answer and no index can prune it (TestKNearestSettledCount pins
// the ball's size).
func (c *Context) KNearest(ctx context.Context, s graph.VertexID, k int) ([]graph.VertexID, error) {
	if k <= 0 {
		return nil, nil
	}
	c.reset()
	c.q.Visit(s, 0, -1)
	out := make([]graph.VertexID, 0, k)
	bound := int64(-1)
	for !c.q.Empty() {
		if err := cancel.Poll(ctx, len(c.settled)); err != nil {
			return nil, err
		}
		v, d := c.q.Pop()
		if bound >= 0 && d > bound {
			break
		}
		c.settled = append(c.settled, v)
		if v != s {
			out = append(out, v)
			if len(out) == k && bound < 0 {
				bound = d // settle remaining ties of the k-th distance
			}
		}
		lo, hi := c.g.ArcsOf(v)
		for a := lo; a < hi; a++ {
			c.q.Visit(c.g.Head(a), d+int64(c.g.ArcWeight(a)), v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if di, dj := c.q.Labels[out[i]].Dist, c.q.Labels[out[j]].Dist; di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// ShortestPath runs a single-pair query and returns the path and distance,
// or (nil, graph.Infinity) when t is unreachable from s.
func (c *Context) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	c.Run([]graph.VertexID{s}, Options{Targets: []graph.VertexID{t}})
	if !c.Reached(t) {
		return nil, graph.Infinity
	}
	return c.PathTo(t), c.Dist(t)
}

// Distance runs a single-pair distance query.
func (c *Context) Distance(s, t graph.VertexID) int64 {
	c.Run([]graph.VertexID{s}, Options{Targets: []graph.VertexID{t}})
	return c.Dist(t)
}

// PathWeight sums the edge weights along a vertex path, verifying that each
// hop is an existing edge. It returns graph.Infinity if a hop is missing.
// Tests use it to validate the paths returned by every technique.
func PathWeight(g *graph.Graph, path []graph.VertexID) int64 {
	if len(path) == 0 {
		return graph.Infinity
	}
	var total int64
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.HasEdge(path[i], path[i+1])
		if !ok {
			return graph.Infinity
		}
		total += int64(w)
	}
	return total
}
