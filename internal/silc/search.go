package silc

import (
	"context"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
)

// Searcher is a query context over a shared Index. Distances read the
// immutable index alone — Distance and DistanceContext are the Index's,
// promoted — and OpenPath walks a path into the searcher's
// buffer. A Searcher is not safe for concurrent use; create one per
// goroutine.
type Searcher struct {
	*Index
	path     []graph.VertexID
	pathIter graph.SlicePath
}

// NewSearcher returns a fresh query context over ix.
func (ix *Index) NewSearcher() *Searcher { return &Searcher{Index: ix} }

// OpenPath walks the shortest path from s to t hop by hop (§3.4) into the
// searcher's buffer and returns an iterator over it plus its length, or
// (nil, Infinity, nil) when t is unreachable. The iterator is invalidated
// by this searcher's next query.
func (sr *Searcher) OpenPath(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error) {
	sr.path = append(sr.path[:0], s)
	d, err := sr.walk(ctx, s, t, &sr.path)
	if err != nil || d >= graph.Infinity {
		return nil, graph.Infinity, err
	}
	sr.pathIter.Reset(sr.path)
	return &sr.pathIter, d, nil
}

// Distance computes the path and returns its length (§3.4: SILC answers a
// distance query by first computing the shortest path).
func (ix *Index) Distance(s, t graph.VertexID) int64 {
	d, _ := ix.DistanceContext(context.Background(), s, t)
	return d
}

// DistanceContext is Distance with cancellation. It takes the steps
// OpenPath takes, keeping the length and not the vertices, so the two can
// never disagree.
func (ix *Index) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	return ix.walk(ctx, s, t, nil)
}

// walk follows the first-hop tables from s to t, one interval lookup per
// hop, appending the vertices after s to path unless it is nil, and
// returns the path length: Infinity when a vertex has no hop toward t. It
// polls ctx every cancel.Interval hops and aborts with its error; an
// already-cancelled ctx aborts before the first lookup.
func (ix *Index) walk(ctx context.Context, s, t graph.VertexID, path *[]graph.VertexID) (int64, error) {
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	var total int64
	for hops, cur := 0, s; cur != t; hops++ {
		if err := cancel.Poll(ctx, hops); err != nil {
			return graph.Infinity, err
		}
		slot := ix.lookup(cur, t)
		lo, hi := ix.g.ArcsOf(cur)
		a := lo + int32(slot)
		// No hop: t is unreachable — or the table is corrupted, as it is
		// when a walk outgrows the graph, which would otherwise never end.
		if slot == noHop || a >= hi || hops >= ix.g.NumVertices() {
			return graph.Infinity, nil
		}
		cur = ix.g.Head(a)
		total += int64(ix.g.ArcWeight(a))
		if path != nil {
			*path = append(*path, cur)
		}
	}
	return total, nil
}
