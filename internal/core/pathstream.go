package core

import (
	"context"

	"roadnet/internal/graph"
)

// PathIterator streams the vertices of one shortest path in order. It is
// defined in the leaf package internal/graph (so technique packages can
// implement it without importing core) and re-exported here as the name the
// serving layers use.
type PathIterator = graph.PathIterator

// OpenPath streams the shortest path from s to t through sr; see
// Searcher.OpenPath, which it calls.
func OpenPath(ctx context.Context, sr Searcher, s, t graph.VertexID) (PathIterator, int64, error) {
	return sr.OpenPath(ctx, s, t)
}
