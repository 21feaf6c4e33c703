package core

// The spatial query tier: an R-tree over the vertex coordinates plus the
// network-distance services built on it. This is the layer behind the
// server's /v1/nearest (snap a coordinate to a vertex), /v1/knn (network
// k-nearest neighbors — the "nearest restaurant at driving distance"
// workload of the paper's Appendix A) and /v1/within (network range).
//
// Geometry only ever *prunes* here, it never decides: both network queries
// are one bounded Dijkstra from the query vertex whatever index serves the
// point-to-point endpoints — every vertex is an object here, so the ball of
// the k nearest vertices (or of the radius) is the answer itself and no
// index has anything to prune — and a range query's geometric pre-filter
// only narrows which vertices the bounded search must prove.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
)

// Neighbor is one (vertex, network distance) result of a k-NN or range
// query; the JSON tags are the wire shape of the server's /v1/knn and
// /v1/within answers.
type Neighbor struct {
	V    graph.VertexID `json:"vertex"`
	Dist int64          `json:"distance"`
}

// SpatialLocator snaps coordinates to vertices and answers network k-NN
// and range queries over one graph. The R-tree is immutable after
// construction and every method is safe for concurrent use: per-query
// state lives on the stack of the R-tree descents and in a pool of
// Dijkstra contexts.
type SpatialLocator struct {
	g    *graph.Graph
	tree *rtree.Tree
	dctx sync.Pool // *dijkstra.Context for the bounded searches
}

// NewSpatialLocator bulk-loads (STR) an R-tree over g's vertex
// coordinates.
func NewSpatialLocator(g *graph.Graph) *SpatialLocator {
	coords := g.Coords()
	ents := make([]rtree.Entry, len(coords))
	for v, p := range coords {
		ents[v] = rtree.Entry{P: p, ID: int32(v)}
	}
	return newSpatialLocator(g, rtree.BulkLoad(ents, rtree.Options{}))
}

// NewSpatialLocatorFromTree wraps a prebuilt (typically mmap-loaded)
// R-tree. The tree must index exactly g's vertices: one entry per vertex,
// entry IDs equal to vertex ids.
func NewSpatialLocatorFromTree(g *graph.Graph, tree *rtree.Tree) (*SpatialLocator, error) {
	if tree.Len() != g.NumVertices() {
		return nil, fmt.Errorf("core: r-tree indexes %d points, graph has %d vertices",
			tree.Len(), g.NumVertices())
	}
	return newSpatialLocator(g, tree), nil
}

func newSpatialLocator(g *graph.Graph, tree *rtree.Tree) *SpatialLocator {
	l := &SpatialLocator{g: g, tree: tree}
	l.dctx.New = func() any { return dijkstra.NewContext(g) }
	return l
}

// Graph returns the graph the locator serves.
func (l *SpatialLocator) Graph() *graph.Graph { return l.g }

// Tree returns the underlying R-tree (for serialization and stats).
func (l *SpatialLocator) Tree() *rtree.Tree { return l.tree }

// NearestVertex snaps p to the geometrically nearest vertex (Euclidean;
// ties broken by smaller vertex id), or -1 on an empty graph.
func (l *SpatialLocator) NearestVertex(p geom.Point) graph.VertexID {
	e, _, ok := l.tree.Nearest(p)
	if !ok {
		return -1
	}
	return graph.VertexID(e.ID)
}

// VerticesWithinRadius returns the vertices within Euclidean distance
// radius of p, in ascending id order.
func (l *SpatialLocator) VerticesWithinRadius(p geom.Point, radius int64) []graph.VertexID {
	var out []graph.VertexID
	l.tree.SearchRadius(p, radius, func(e rtree.Entry, _ int64) bool {
		out = append(out, graph.VertexID(e.ID))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KNearest returns the k vertices nearest to s by network distance,
// excluding s, ordered by (distance, id), via a Dijkstra that stops once k
// vertices and the ties of the k-th distance are settled. ctx cancels
// mid-query.
func (l *SpatialLocator) KNearest(ctx context.Context, s graph.VertexID, k int) ([]Neighbor, error) {
	if n := l.g.NumVertices(); k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return nil, nil
	}
	c := l.dctx.Get().(*dijkstra.Context)
	defer l.dctx.Put(c)
	vs, err := c.KNearest(ctx, s, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(vs))
	for i, v := range vs {
		out[i] = Neighbor{V: v, Dist: c.Dist(v)}
	}
	return out, nil
}

// WithinOptions tunes a network range query.
type WithinOptions struct {
	// EuclidRadius, when positive, intersects the answer with the
	// Euclidean ball of that radius around s's coordinate. The R-tree
	// resolves the ball first and the bounded search then runs in
	// target mode, stopping as soon as every geometric candidate is
	// settled — usually long before the full network ball is explored.
	EuclidRadius int64
	// MaxResults, when positive, truncates the (distance, id)-sorted
	// answer to that many neighbors; the second return value reports
	// whether truncation happened.
	MaxResults int
}

// Within returns the vertices whose network distance from s is at most
// maxDist (excluding s), ordered by (distance, id) ascending, via a
// bounded Dijkstra that stops once the queue minimum exceeds maxDist.
// maxDist must be positive; the result is empty otherwise.
func (l *SpatialLocator) Within(ctx context.Context, s graph.VertexID, maxDist int64, opt WithinOptions) ([]Neighbor, bool, error) {
	if maxDist <= 0 {
		return nil, false, nil
	}
	c := l.dctx.Get().(*dijkstra.Context)
	defer l.dctx.Put(c)
	var out []Neighbor
	if opt.EuclidRadius > 0 {
		cands := l.VerticesWithinRadius(l.g.Coord(s), opt.EuclidRadius)
		if len(cands) == 0 {
			return nil, false, nil
		}
		if _, err := c.RunContext(ctx, []graph.VertexID{s},
			dijkstra.Options{MaxDist: maxDist, Targets: cands}); err != nil {
			return nil, false, err
		}
		for _, v := range cands {
			if v == s {
				continue
			}
			// Any candidate whose (tentative) distance is within maxDist
			// was necessarily settled — the search only stops with
			// unsettled vertices strictly beyond maxDist — so Dist is
			// final here.
			if d := c.Dist(v); d <= maxDist {
				out = append(out, Neighbor{V: v, Dist: d})
			}
		}
	} else {
		if _, err := c.RunContext(ctx, []graph.VertexID{s},
			dijkstra.Options{MaxDist: maxDist}); err != nil {
			return nil, false, err
		}
		for _, v := range c.Settled() {
			if v == s {
				continue
			}
			out = append(out, Neighbor{V: v, Dist: c.Dist(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].V < out[j].V
	})
	if opt.MaxResults > 0 && len(out) > opt.MaxResults {
		return out[:opt.MaxResults], true, nil
	}
	return out, false, nil
}
