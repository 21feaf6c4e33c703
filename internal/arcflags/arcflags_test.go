package arcflags_test

import (
	"testing"

	"roadnet/internal/arcflags"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// build returns the arc-flags index of g over a default hierarchy.
func build(g *graph.Graph) *arcflags.Index {
	return arcflags.Build(g, testutil.Must(ch.Build(g, ch.Options{})))
}

func TestArcFlagsExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	ix := build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.OpenPath)
}

func TestArcFlagsRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(900, 701)
	ix := build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 300, 101), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 103), ix.OpenPath)
}

func TestArcFlagsAdversarialGraph(t *testing.T) {
	// Ties are common in random graphs; the tight-arc flags must cover
	// them.
	g := gen.RandomConnected(150, 300, 16, 701)
	ix := build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g)[:4000], ix.Distance)
}

func TestArcFlagsPruneSearch(t *testing.T) {
	g := testutil.SmallRoad(2500, 703)
	ix := build(g).NewSearcher()
	ctx := dijkstra.NewContext(g)
	var flagged, plain int
	for _, p := range testutil.SamplePairs(g, 30, 107) {
		if p[0] == p[1] {
			continue
		}
		ix.Distance(p[0], p[1])
		flagged += ix.SettledLast()
		plain += ctx.Run([]graph.VertexID{p[0]}, dijkstra.Options{Targets: []graph.VertexID{p[1]}})
	}
	if flagged >= plain {
		t.Errorf("arc flags settled %d >= plain Dijkstra %d; no pruning", flagged, plain)
	}
}

func TestArcFlagsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.Build()
	ix := build(g).NewSearcher()
	if d := ix.Distance(0, 3); d != graph.Infinity {
		t.Errorf("cross-component distance = %d", d)
	}
}

func TestArcFlagsStats(t *testing.T) {
	g := testutil.SmallRoad(400, 707)
	ix := build(g)
	if ix.SizeBytes() <= 0 {
		t.Error("size must be positive")
	}
}
