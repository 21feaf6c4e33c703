package graph

import (
	"testing"

	"roadnet/internal/geom"
)

// paperFigure1 builds the 8-vertex example road network of the paper's
// Figure 1: edges (v2,v8) and (v6,v8) have weight 2, all others weight 1.
// Vertex ids are zero-based: paper's v1 is vertex 0.
func paperFigure1(t *testing.T) *Graph {
	t.Helper()
	coords := []geom.Point{
		{X: 1, Y: 2}, // v1
		{X: 1, Y: 0}, // v2
		{X: 0, Y: 1}, // v3
		{X: 5, Y: 0}, // v4
		{X: 5, Y: 2}, // v5
		{X: 4, Y: 1}, // v6
		{X: 6, Y: 2}, // v7
		{X: 2, Y: 1}, // v8
	}
	edges := []Edge{
		{U: 0, V: 2, Weight: 1}, // v1-v3
		{U: 0, V: 7, Weight: 1}, // v1-v8
		{U: 1, V: 2, Weight: 1}, // v2-v3
		{U: 1, V: 7, Weight: 2}, // v2-v8
		{U: 3, V: 4, Weight: 1}, // v4-v5
		{U: 3, V: 5, Weight: 1}, // v4-v6
		{U: 4, V: 5, Weight: 1}, // v5-v6
		{U: 4, V: 6, Weight: 1}, // v5-v7
		{U: 5, V: 7, Weight: 2}, // v6-v8
	}
	g, err := FromEdges(coords, edges)
	if err != nil {
		t.Fatalf("building Figure 1 graph: %v", err)
	}
	return g
}

func TestBuilderAndAccessors(t *testing.T) {
	g := paperFigure1(t)
	if g.NumVertices() != 8 {
		t.Fatalf("NumVertices = %d, want 8", g.NumVertices())
	}
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d, want 9", g.NumEdges())
	}
	if g.NumArcs() != 18 {
		t.Fatalf("NumArcs = %d, want 18", g.NumArcs())
	}
	if d := g.Degree(7); d != 3 { // v8 neighbors: v1, v2, v6
		t.Fatalf("Degree(v8) = %d, want 3", d)
	}
	if w, ok := g.HasEdge(1, 7); !ok || w != 2 {
		t.Fatalf("HasEdge(v2, v8) = (%d, %v), want (2, true)", w, ok)
	}
	if w, ok := g.HasEdge(7, 1); !ok || w != 2 {
		t.Fatalf("HasEdge(v8, v2) = (%d, %v), want (2, true) (undirected)", w, ok)
	}
	if _, ok := g.HasEdge(0, 6); ok {
		t.Fatal("HasEdge(v1, v7) should be false")
	}
}

func TestNeighborsIteration(t *testing.T) {
	g := paperFigure1(t)
	var seen []VertexID
	g.Neighbors(7, func(w VertexID, wt Weight, edgeID int32) bool {
		seen = append(seen, w)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("v8 has %d neighbors, want 3", len(seen))
	}
	// Early stop.
	count := 0
	g.Neighbors(7, func(VertexID, Weight, int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop iteration visited %d, want 1", count)
	}
}

func TestEdgeIDsPairArcs(t *testing.T) {
	g := paperFigure1(t)
	// Each undirected edge id must appear on exactly two arcs with equal
	// weights and opposite endpoints.
	type arcInfo struct {
		u, v VertexID
		w    Weight
	}
	byID := map[int32][]arcInfo{}
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.ArcsOf(u)
		for a := lo; a < hi; a++ {
			id := g.EdgeIDOf(a)
			byID[id] = append(byID[id], arcInfo{u, g.Head(a), g.ArcWeight(a)})
		}
	}
	if len(byID) != g.NumEdges() {
		t.Fatalf("distinct edge ids = %d, want %d", len(byID), g.NumEdges())
	}
	for id, arcs := range byID {
		if len(arcs) != 2 {
			t.Fatalf("edge %d has %d arcs, want 2", id, len(arcs))
		}
		a, b := arcs[0], arcs[1]
		if a.u != b.v || a.v != b.u || a.w != b.w {
			t.Fatalf("edge %d arcs are not opposite: %+v vs %+v", id, a, b)
		}
	}
}

func TestEdgesByIDIndexedByEdgeID(t *testing.T) {
	g := paperFigure1(t)
	byID := g.EdgesByID()
	if len(byID) != g.NumEdges() {
		t.Fatalf("EdgesByID length %d, want %d", len(byID), g.NumEdges())
	}
	// Every arc's EdgeIDOf must point at its own edge in the slice.
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.ArcsOf(u)
		for a := lo; a < hi; a++ {
			e := byID[g.EdgeIDOf(a)]
			v := g.Head(a)
			if !(e.U == u && e.V == v || e.U == v && e.V == u) {
				t.Fatalf("arc (%d,%d) maps to edge %+v", u, v, e)
			}
			if e.Weight != g.ArcWeight(a) {
				t.Fatalf("arc (%d,%d) weight %d, edge %+v", u, v, g.ArcWeight(a), e)
			}
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddVertex(geom.Point{})
	b.AddVertex(geom.Point{X: 1})
	if err := b.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop should be rejected")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight should be rejected")
	}
	if err := b.AddEdge(0, 1, -5); err == nil {
		t.Error("negative weight should be rejected")
	}
	if err := b.AddEdge(0, 2, 1); err == nil {
		t.Error("out-of-range vertex should be rejected")
	}
	if err := b.AddEdge(0, 1, 7); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestEdgesListedOnce(t *testing.T) {
	g := paperFigure1(t)
	edges := g.Edges()
	if len(edges) != 9 {
		t.Fatalf("Edges() returned %d, want 9", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge %+v not normalized U < V", e)
		}
	}
}

func TestMaxDegreeAndBounds(t *testing.T) {
	g := paperFigure1(t)
	if d := g.MaxDegree(); d != 3 {
		t.Fatalf("MaxDegree = %d, want 3", d)
	}
	b := g.Bounds()
	want := geom.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 2}
	if b != want {
		t.Fatalf("Bounds = %+v, want %+v", b, want)
	}
	if g.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
}

func TestConnectedComponents(t *testing.T) {
	coords := make([]geom.Point, 6)
	edges := []Edge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 1},
		{U: 3, V: 4, Weight: 1},
	}
	g, err := FromEdges(coords, edges)
	if err != nil {
		t.Fatal(err)
	}
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("vertices 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("vertices 3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("vertex 5 should be isolated")
	}

	lc, mapping := LargestComponent(g)
	if lc.NumVertices() != 3 || lc.NumEdges() != 2 {
		t.Fatalf("largest component: %d vertices %d edges, want 3 and 2", lc.NumVertices(), lc.NumEdges())
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping length = %d, want 3", len(mapping))
	}
	if _, count := ConnectedComponents(lc); count != 1 {
		t.Errorf("largest component has %d components, want 1", count)
	}
}

func TestLargestComponentOfConnectedIsIdentity(t *testing.T) {
	g := paperFigure1(t)
	lc, mapping := LargestComponent(g)
	if lc != g || mapping != nil {
		t.Error("connected graph should be returned unchanged")
	}
}
