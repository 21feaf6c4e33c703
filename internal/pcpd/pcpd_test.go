package pcpd_test

import (
	"testing"

	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/testutil"
)

func build(t *testing.T, g *graph.Graph) *pcpd.Index {
	t.Helper()
	ix, err := pcpd.Build(g, pcpd.Options{})
	if err != nil {
		t.Fatalf("pcpd.Build: %v", err)
	}
	return ix
}

func TestPCPDExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.ShortestPath)
}

func TestPCPDRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(400, 301)
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 400, 81), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 150, 83), ix.ShortestPath)
}

func TestPCPDExhaustiveSmallRoad(t *testing.T) {
	g := testutil.SmallRoad(100, 307)
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.ShortestPath)
}

func TestPCPDAdversarialGraph(t *testing.T) {
	g := gen.RandomConnected(120, 200, 30, 311)
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 89), ix.ShortestPath)
}

func TestPCPDCoordinateCollisions(t *testing.T) {
	b := graph.NewBuilder(5)
	p := testutil.Figure1().Coord(0)
	for i := 0; i < 5; i++ {
		b.AddVertex(p) // everyone in the same quadtree cell
	}
	for i := 0; i < 4; i++ {
		if err := b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), graph.Weight(2*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.ShortestPath)
}

func TestPCPDDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	g0 := testutil.Figure1()
	for i := 0; i < 6; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(1, 2, 4)
	_ = b.AddEdge(3, 4, 5)
	g := b.Build()
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.ShortestPath)
}

func TestPCPDGuards(t *testing.T) {
	b := graph.NewBuilder(0)
	if _, err := pcpd.Build(b.Build(), pcpd.Options{}); err == nil {
		t.Error("empty graph should be rejected")
	}
	g := testutil.SmallRoad(400, 313)
	if _, err := pcpd.Build(g, pcpd.Options{MaxN: 100}); err == nil {
		t.Error("MaxN guard should reject oversized graphs")
	}
	if _, err := pcpd.Build(g, pcpd.Options{Bits: 17}); err == nil {
		t.Error("more than 16 bits per axis should be rejected")
	}
	// Path labels are uint16 whatever MaxN allows.
	b = graph.NewBuilder(1 << 16)
	for i := 0; i < 1<<16; i++ {
		b.AddVertex(g.Coord(0))
	}
	if _, err := pcpd.Build(b.Build(), pcpd.Options{MaxN: 1 << 20}); err == nil {
		t.Error("graphs of more than 65535 vertices should be rejected")
	}
}

func TestPCPDStats(t *testing.T) {
	g := testutil.SmallRoad(400, 317)
	ix := build(t, g)
	if ix.SizeBytes() <= 0 || ix.BuildTime() <= 0 {
		t.Error("stats must be positive")
	}
	if ix.NumPairs() <= 0 || ix.NumNodes() < ix.NumPairs() {
		t.Errorf("implausible pair/node counts: %d pairs, %d nodes", ix.NumPairs(), ix.NumNodes())
	}
}

func TestPCPDSameVertex(t *testing.T) {
	g := testutil.Figure1()
	ix := build(t, g)
	if d := ix.Distance(2, 2); d != 0 {
		t.Errorf("dist(v, v) = %d", d)
	}
	if p, d := ix.ShortestPath(2, 2); d != 0 || len(p) != 1 {
		t.Errorf("path(v, v) = %v, %d", p, d)
	}
}
