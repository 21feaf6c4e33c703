package alt_test

import (
	"testing"

	"roadnet/internal/alt"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

func TestALTExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	ix := alt.Build(g, alt.Options{NumLandmarks: 3}).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.ShortestPath)
}

func TestALTRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(900, 401)
	ix := alt.Build(g, alt.Options{}).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 300, 91), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 93), ix.ShortestPath)
}

func TestALTAdversarialGraph(t *testing.T) {
	g := gen.RandomConnected(150, 300, 40, 401)
	ix := alt.Build(g, alt.Options{NumLandmarks: 8}).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 400, 97), ix.Distance)
}

func TestALTPrunesSearchSpace(t *testing.T) {
	// The landmark bounds must direct the search: ALT should settle fewer
	// vertices than plain Dijkstra on long queries.
	g := testutil.SmallRoad(2500, 403)
	ix := alt.Build(g, alt.Options{}).NewSearcher()
	ctx := dijkstra.NewContext(g)
	var altTotal, dijTotal int
	for _, p := range testutil.SamplePairs(g, 30, 99) {
		if p[0] == p[1] {
			continue
		}
		ix.Distance(p[0], p[1])
		altTotal += ix.SettledLast()
		dijTotal += ctx.Run([]graph.VertexID{p[0]}, dijkstra.Options{Targets: []graph.VertexID{p[1]}})
	}
	if altTotal >= dijTotal {
		t.Errorf("ALT settled %d >= Dijkstra %d", altTotal, dijTotal)
	}
}

func TestALTDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 2)
	_ = b.AddEdge(2, 3, 2)
	g := b.Build()
	ix := alt.Build(g, alt.Options{NumLandmarks: 2}).NewSearcher()
	if d := ix.Distance(0, 3); d != graph.Infinity {
		t.Errorf("cross-component distance = %d, want Infinity", d)
	}
	if p, _ := ix.ShortestPath(0, 3); p != nil {
		t.Errorf("cross-component path = %v", p)
	}
}

func TestALTStats(t *testing.T) {
	g := testutil.SmallRoad(400, 407)
	ix := alt.Build(g, alt.Options{NumLandmarks: 4})
	if ix.NumLandmarks() != 4 {
		t.Errorf("landmarks = %d, want 4", ix.NumLandmarks())
	}
	if ix.SizeBytes() <= 0 || ix.BuildTime() <= 0 {
		t.Error("stats must be positive")
	}
	// More landmarks than vertices clamps.
	tiny := alt.Build(testutil.Figure1(), alt.Options{NumLandmarks: 100})
	if tiny.NumLandmarks() > 8 {
		t.Errorf("landmarks %d exceed vertex count", tiny.NumLandmarks())
	}
}
