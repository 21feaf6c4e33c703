package tnr_test

import (
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// figure12b builds the Appendix B counterexample family: a backbone road
// plus the paper's Figure 12(b) stub — a vertex v1 in cell C0 whose only
// way out is v5, and v5's only other neighbor v6 lies beyond C0's outer
// shell, connected by an edge that jumps straight over the sampled outer
// ring. The flawed access-node computation of Bast et al. omits v5, so
// queries between v1 and v6 return incorrect results.
//
// Returns the graph and the vertex ids of v1 and v6.
func figure12b(t *testing.T) (*graph.Graph, graph.VertexID, graph.VertexID) {
	t.Helper()
	b := graph.NewBuilder(32)
	// Backbone row near the top of the map fixes the grid bounds and gives
	// the index normal cells to work with.
	var backbone []graph.VertexID
	for i := 0; i < 16; i++ {
		backbone = append(backbone, b.AddVertex(geom.Point{X: int32(50 + i*100), Y: 1550}))
	}
	for i := 0; i+1 < len(backbone); i++ {
		if err := b.AddEdge(backbone[i], backbone[i+1], 10); err != nil {
			t.Fatal(err)
		}
	}
	// A second row so the backbone is two-dimensional.
	var row2 []graph.VertexID
	for i := 0; i < 16; i++ {
		row2 = append(row2, b.AddVertex(geom.Point{X: int32(50 + i*100), Y: 1450}))
	}
	for i := 0; i+1 < len(row2); i++ {
		if err := b.AddEdge(row2[i], row2[i+1], 10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i += 3 {
		if err := b.AddEdge(backbone[i], row2[i], 10); err != nil {
			t.Fatal(err)
		}
	}
	// The Figure 12(b) stub, at the bottom of the map: v1 in cell (0, 0),
	// v5 three cells to the right (just outside the 5x5 inner block of
	// C0), v6 seven cells out (beyond the outer shell), with the v5-v6
	// edge jumping over the ring of cells at Chebyshev distance 4.
	v1 := b.AddVertex(geom.Point{X: 60, Y: 60})
	v5 := b.AddVertex(geom.Point{X: 360, Y: 60})
	v6 := b.AddVertex(geom.Point{X: 760, Y: 60})
	if err := b.AddEdge(v1, v5, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(v5, v6, 5); err != nil {
		t.Fatal(err)
	}
	return b.Build(), v1, v6
}

func TestAppendixBFlawedTNRGivesWrongAnswer(t *testing.T) {
	g, v1, v6 := figure12b(t)
	want := dijkstra.NewContext(g).Distance(v1, v6)
	if want != 10 {
		t.Fatalf("ground truth dist(v1, v6) = %d, want 10 (fixture broken)", want)
	}

	h := testutil.Must(ch.Build(g, ch.Options{}))
	flawed, err := tnr.BuildFlawed(g, h, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The grid, and so the locality filter, is that of any index on 16x16.
	if !testutil.Must(tnr.Build(g, h, tnr.Options{GridSize: 16})).CanAnswerFromTables(v1, v6) {
		t.Fatal("v1 and v6 should pass the locality filter (fixture broken)")
	}
	if got := flawed(v1, v6); got == want {
		t.Errorf("flawed TNR answered dist(v1, v6) = %d correctly; the Appendix B defect did not manifest", got)
	}
}

func TestAppendixBCorrectedTNRStaysExact(t *testing.T) {
	g, v1, v6 := figure12b(t)
	corrected, err := tnr.Build(g, testutil.Must(ch.Build(g, ch.Options{})), tnr.Options{GridSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := corrected.NewSearcher().Distance(v1, v6); got != 10 {
		t.Errorf("corrected TNR dist(v1, v6) = %d, want 10", got)
	}
	// The corrected method must be exact on every pair of this adversarial
	// graph, not just the counterexample pair.
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), corrected.NewSearcher().Distance)
}

func TestFlawedTNRWorksOnBenignNetworks(t *testing.T) {
	// On a regular road network without ring-jumping edges the flawed
	// method is usually correct — that is why the defect survived in the
	// original paper's implementation. Verify it is not trivially broken.
	g := testutil.SmallRoad(900, 107)
	flawed, err := tnr.BuildFlawed(g, testutil.Must(ch.Build(g, ch.Options{})), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dijkstra.NewContext(g)
	pairs := testutil.SamplePairs(g, 200, 67)
	correct := 0
	for _, p := range pairs {
		if flawed(p[0], p[1]) == ctx.Distance(p[0], p[1]) {
			correct++
		}
	}
	if correct < len(pairs)*3/4 {
		t.Errorf("flawed TNR correct on only %d/%d benign queries; implementation suspect", correct, len(pairs))
	}
}
