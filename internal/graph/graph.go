// Package graph provides the road-network substrate shared by every
// technique in this repository: an undirected, weighted, degree-bounded
// graph in compressed-sparse-row (CSR) form with planar vertex coordinates,
// plus construction helpers and DIMACS Implementation Challenge file IO.
//
// The paper's datasets (Table 1) are undirected graphs whose edge weights
// are travel times; coordinates come from the companion DIMACS ".co" files
// and are required by TNR's grid, SILC's and PCPD's quadtrees, and the
// L-infinity workload generator.
//
// # Weights
//
// Edge weights are at least 1 (Builder.AddEdge rejects anything else), and
// queries compute distances in int64, so any path length fits. What an index
// stores is narrower: CH shortcut weights and TNR's distance tables are
// Weight cells, with math.MaxInt32 kept for "no distance". Every distance an
// index stores must therefore be below math.MaxInt32; preprocessing narrows
// through NarrowWeight and refuses, with ErrWeightOverflow, a network on
// which one is not, instead of building an index that answers wrongly.
package graph

import (
	"errors"
	"fmt"
	"math"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
)

// VertexID identifies a vertex; ids are dense in [0, NumVertices).
type VertexID = int32

// Weight is an edge weight (travel time) in arbitrary integer units.
type Weight = int32

// ErrWeightOverflow reports a distance too long for an index to store; see
// the package doc.
var ErrWeightOverflow = errors.New("graph: distance does not fit a stored weight")

// NarrowWeight converts a distance to the Weight an index stores it as, or
// fails with ErrWeightOverflow when it is not below math.MaxInt32.
func NarrowWeight(d int64) (Weight, error) {
	if d >= math.MaxInt32 {
		return 0, fmt.Errorf("%w: %d", ErrWeightOverflow, d)
	}
	return Weight(d), nil
}

// Infinity is the distance reported for unreachable vertex pairs.
// It is small enough that Infinity+Infinity does not overflow int64.
const Infinity int64 = math.MaxInt64 / 4

// Edge is one undirected edge of the network.
type Edge struct {
	U, V   VertexID
	Weight Weight
}

// Graph is an undirected weighted graph in CSR (adjacency array) form.
// Each undirected edge {u, v} is stored twice, once in each direction, as
// in the hash-table layout of the paper's Appendix D. Fields are exported
// read-only views; use Builder to construct a Graph.
type Graph struct {
	// firstOut[v] .. firstOut[v+1] delimit the arcs leaving v.
	firstOut []int32
	// head[a] is the target vertex of arc a.
	head []VertexID
	// weight[a] is the weight of arc a.
	weight []Weight
	// edgeID[a] is the id of the undirected edge arc a belongs to; the two
	// opposite arcs of an undirected edge share one edge id.
	edgeID []int32
	// coords[v] is the planar position of vertex v.
	coords []geom.Point

	numEdges int
	bounds   geom.Rect

	// backing is the flat container a loaded graph's arrays alias
	// (GraphFromFlat); nil for built graphs. See Close.
	backing *binio.FlatFile
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.firstOut) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs returns the number of directed arcs (2 * NumEdges).
func (g *Graph) NumArcs() int { return len(g.head) }

// Coord returns the planar position of v.
func (g *Graph) Coord(v VertexID) geom.Point { return g.coords[v] }

// Coords returns the coordinate slice indexed by vertex id. Callers must
// treat it as read-only.
func (g *Graph) Coords() []geom.Point { return g.coords }

// Bounds returns the bounding rectangle of all vertex coordinates.
func (g *Graph) Bounds() geom.Rect { return g.bounds }

// Degree returns the number of arcs leaving v.
func (g *Graph) Degree(v VertexID) int { return int(g.firstOut[v+1] - g.firstOut[v]) }

// ArcsOf returns the half-open arc index range of v, for use with Head,
// ArcWeight and EdgeIDOf.
func (g *Graph) ArcsOf(v VertexID) (lo, hi int32) { return g.firstOut[v], g.firstOut[v+1] }

// Head returns the target vertex of arc a.
func (g *Graph) Head(a int32) VertexID { return g.head[a] }

// ArcWeight returns the weight of arc a.
func (g *Graph) ArcWeight(a int32) Weight { return g.weight[a] }

// EdgeIDOf returns the undirected edge id of arc a.
func (g *Graph) EdgeIDOf(a int32) int32 { return g.edgeID[a] }

// Neighbors calls fn for every arc (v, w) leaving v with the arc's weight
// and undirected edge id. Iteration stops early if fn returns false.
func (g *Graph) Neighbors(v VertexID, fn func(w VertexID, wt Weight, edgeID int32) bool) {
	for a := g.firstOut[v]; a < g.firstOut[v+1]; a++ {
		if !fn(g.head[a], g.weight[a], g.edgeID[a]) {
			return
		}
	}
}

// HasEdge reports whether an edge {u, v} exists, returning its minimal
// weight when several parallel edges exist.
func (g *Graph) HasEdge(u, v VertexID) (Weight, bool) {
	best := Weight(math.MaxInt32)
	found := false
	for a := g.firstOut[u]; a < g.firstOut[u+1]; a++ {
		if g.head[a] == v && g.weight[a] <= best {
			best = g.weight[a]
			found = true
		}
	}
	return best, found
}

// Edges returns all undirected edges, each reported once with U < V
// (self-loops are impossible by construction).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdges)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for a := g.firstOut[v]; a < g.firstOut[v+1]; a++ {
			if w := g.head[a]; v < w {
				edges = append(edges, Edge{U: v, V: w, Weight: g.weight[a]})
			}
		}
	}
	return edges
}

// EdgesByID returns the undirected edges indexed by their edge id (the id
// reported by EdgeIDOf), with U < V. Unlike Edges, whose order follows the
// CSR layout, the returned slice can be indexed directly by edge id.
func (g *Graph) EdgesByID() []Edge {
	edges := make([]Edge, g.numEdges)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for a := g.firstOut[v]; a < g.firstOut[v+1]; a++ {
			if w := g.head[a]; v < w {
				edges[g.edgeID[a]] = Edge{U: v, V: w, Weight: g.weight[a]}
			}
		}
	}
	return edges
}

// MaxWeight returns the largest arc weight, 0 on a graph without edges. It
// scans the arcs, so a searcher sizing its queue by it calls it once.
func (g *Graph) MaxWeight() Weight {
	var m Weight
	for _, w := range g.weight {
		m = max(m, w)
	}
	return m
}

// MaxDegree returns the largest vertex degree; road networks are
// degree-bounded (§2), and tests assert the generator respects this.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// SizeBytes returns the in-memory footprint of the CSR arrays, used when
// reporting space consumption alongside the index structures.
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.firstOut))*4 + int64(len(g.head))*4 +
		int64(len(g.weight))*4 + int64(len(g.edgeID))*4 + int64(len(g.coords))*8
}

// Builder accumulates vertices and undirected edges and produces a Graph.
type Builder struct {
	coords []geom.Point
	edges  []Edge
}

// NewBuilder returns a Builder expecting roughly n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{coords: make([]geom.Point, 0, n)}
}

// AddVertex appends a vertex at point p and returns its id.
func (b *Builder) AddVertex(p geom.Point) VertexID {
	b.coords = append(b.coords, p)
	return VertexID(len(b.coords) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.coords) }

// AddEdge adds the undirected edge {u, v} with weight w.
// Self-loops and non-positive weights are rejected.
func (b *Builder) AddEdge(u, v VertexID, w Weight) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %d on edge {%d, %d}", w, u, v)
	}
	n := VertexID(len(b.coords))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge {%d, %d} references unknown vertex (n=%d)", u, v, n)
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	return nil
}

// Build produces the CSR graph. The Builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.coords)
	g := &Graph{
		firstOut: make([]int32, n+1),
		head:     make([]VertexID, 2*len(b.edges)),
		weight:   make([]Weight, 2*len(b.edges)),
		edgeID:   make([]int32, 2*len(b.edges)),
		coords:   b.coords,
		numEdges: len(b.edges),
		bounds:   geom.BoundingRect(b.coords),
	}
	deg := make([]int32, n)
	for _, e := range b.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.firstOut[v+1] = g.firstOut[v] + deg[v]
	}
	next := make([]int32, n)
	copy(next, g.firstOut[:n])
	for i, e := range b.edges {
		a := next[e.U]
		next[e.U]++
		g.head[a] = e.V
		g.weight[a] = e.Weight
		g.edgeID[a] = int32(i)

		a = next[e.V]
		next[e.V]++
		g.head[a] = e.U
		g.weight[a] = e.Weight
		g.edgeID[a] = int32(i)
	}
	return g
}

// FromEdges builds a graph directly from coordinates and an edge list.
func FromEdges(coords []geom.Point, edges []Edge) (*Graph, error) {
	b := NewBuilder(len(coords))
	for _, p := range coords {
		b.AddVertex(p)
	}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
