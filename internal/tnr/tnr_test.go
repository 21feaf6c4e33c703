package tnr_test

import (
	"context"
	"errors"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

func buildTNR(t *testing.T, g *graph.Graph, opts tnr.Options) *tnr.Index {
	t.Helper()
	ix, err := tnr.Build(g, testutil.Must(ch.Build(g, ch.Options{})), opts)
	if err != nil {
		t.Fatalf("tnr.Build: %v", err)
	}
	return ix
}

func TestTNRDistancesExactRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(1600, 71)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 400, 31), ix.NewSearcher().Distance)
}

func TestTNRUsesTablesForFarQueries(t *testing.T) {
	g := testutil.SmallRoad(1600, 71)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	// Opposite corners of the map must pass the locality filter.
	var s, tt graph.VertexID = -1, -1
	b := g.Bounds()
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Coord(graph.VertexID(v))
		if p.X-b.MinX < (b.MaxX-b.MinX)/8 && p.Y-b.MinY < (b.MaxY-b.MinY)/8 {
			s = graph.VertexID(v)
		}
		if b.MaxX-p.X < (b.MaxX-b.MinX)/8 && b.MaxY-p.Y < (b.MaxY-b.MinY)/8 {
			tt = graph.VertexID(v)
		}
	}
	if s < 0 || tt < 0 {
		t.Fatal("could not find corner vertices")
	}
	if !ix.CanAnswerFromTables(s, tt) {
		t.Fatalf("corner-to-corner query should pass the locality filter")
	}
	before, _ := ix.QueryCounts()
	want := dijkstra.NewContext(g).Distance(s, tt)
	if got := ix.NewSearcher().Distance(s, tt); got != want {
		t.Errorf("table-answered distance = %d, want %d", got, want)
	}
	if after, _ := ix.QueryCounts(); after != before+1 {
		t.Errorf("query should have been counted as table-answered")
	}
}

func TestTNRFallsBackForLocalQueries(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	// A vertex and its neighbor are in the same or adjacent cells: the
	// locality filter must reject, and the fallback must answer exactly.
	s := graph.VertexID(0)
	tt := g.Head(0)
	if ix.CanAnswerFromTables(s, tt) {
		t.Fatal("adjacent vertices should not pass the locality filter")
	}
	_, before := ix.QueryCounts()
	want := dijkstra.NewContext(g).Distance(s, tt)
	if got := ix.NewSearcher().Distance(s, tt); got != want {
		t.Errorf("fallback distance = %d, want %d", got, want)
	}
	if _, after := ix.QueryCounts(); after != before+1 {
		t.Error("query should have been counted as fallback")
	}
}

func TestTNRShortestPathsExact(t *testing.T) {
	g := testutil.SmallRoad(1600, 79)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 150, 37), ix.NewSearcher().OpenPath)
}

func TestTNRHybridGrid(t *testing.T) {
	g := testutil.SmallRoad(1600, 89)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8, Hybrid: true})
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 300, 47), ix.NewSearcher().Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 60, 53), ix.NewSearcher().OpenPath)
}

func TestTNRHybridAnswersMoreFromTables(t *testing.T) {
	g := testutil.SmallRoad(1600, 89)
	plain := buildTNR(t, g, tnr.Options{GridSize: 8})
	hybrid := buildTNR(t, g, tnr.Options{GridSize: 8, Hybrid: true})
	pairs := testutil.SamplePairs(g, 500, 59)
	var plainTables, hybridTables int
	for _, p := range pairs {
		if plain.CanAnswerFromTables(p[0], p[1]) {
			plainTables++
		}
		if hybrid.CanAnswerFromTables(p[0], p[1]) {
			hybridTables++
		}
	}
	if hybridTables <= plainTables {
		t.Errorf("hybrid grid answers %d of %d from tables, plain %d; hybrid must answer more",
			hybridTables, len(pairs), plainTables)
	}
}

func TestTNRSameVertexAndAdjacent(t *testing.T) {
	g := testutil.SmallRoad(400, 97)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	if d := ix.NewSearcher().Distance(5, 5); d != 0 {
		t.Errorf("dist(v, v) = %d, want 0", d)
	}
	p, d := testutil.Path(ix.NewSearcher().OpenPath, 5, 5)
	if d != 0 || len(p) != 1 {
		t.Errorf("path(v, v) = %v, %d", p, d)
	}
}

func TestTNRStats(t *testing.T) {
	g := testutil.SmallRoad(900, 101)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	coarse, fine := ix.NumAccessNodes()
	if coarse <= 0 {
		t.Error("expected access nodes on the coarse grid")
	}
	if fine != 0 {
		t.Error("non-hybrid index should have no fine layer")
	}
	if m := ix.MeanAccessNodesPerCell(); m <= 0 || m > 200 {
		t.Errorf("mean access nodes per cell = %.1f, implausible", m)
	}
	if ix.Hierarchy() == nil {
		t.Error("hierarchy must be available")
	}
}

func TestTNRReusesProvidedHierarchy(t *testing.T) {
	g := testutil.SmallRoad(400, 103)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	ix := testutil.Must(tnr.Build(g, h, tnr.Options{GridSize: 8}))
	if ix.Hierarchy() != h {
		t.Error("provided hierarchy was not reused")
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 61), ix.NewSearcher().Distance)
}

func TestTNREmptyGraphRejected(t *testing.T) {
	b := graph.NewBuilder(0)
	if _, err := tnr.Build(b.Build(), nil, tnr.Options{}); err == nil {
		t.Error("empty graph should be rejected")
	}
}

func TestTNRSearcherContextCancelled(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	sr := ix.NewSearcher()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	// A local pair exercises the fallback search, which must observe the
	// cancelled context before doing any work.
	s, tgt := localPair(ix, g)
	if _, err := sr.DistanceContext(ctx, s, tgt); !errors.Is(err, context.Canceled) {
		t.Errorf("DistanceContext err = %v, want context.Canceled", err)
	}
	if _, _, err := sr.OpenPath(ctx, s, tgt); !errors.Is(err, context.Canceled) {
		t.Errorf("OpenPath err = %v, want context.Canceled", err)
	}
	// The searcher remains valid for reuse after an abort.
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 20, 479), sr.Distance)
}

// localPair finds a pair the tables cannot answer, forcing the fallback.
func localPair(ix *tnr.Index, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	for _, p := range testutil.SamplePairs(g, 256, 487) {
		if p[0] != p[1] && !ix.CanAnswerFromTables(p[0], p[1]) {
			return p[0], p[1]
		}
	}
	// Adjacent vertices always fail the locality filter.
	var s, t graph.VertexID
	g.Neighbors(0, func(v graph.VertexID, _ graph.Weight, _ int32) bool {
		s, t = 0, v
		return false
	})
	return s, t
}
