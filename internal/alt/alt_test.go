package alt_test

import (
	"math"
	"testing"

	"roadnet/internal/alt"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

func TestALTExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	ix := alt.Build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.OpenPath)
}

func TestALTRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(900, 401)
	ix := alt.Build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 300, 91), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 93), ix.OpenPath)
}

func TestALTAdversarialGraph(t *testing.T) {
	g := gen.RandomConnected(150, 300, 40, 401)
	ix := alt.Build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 400, 97), ix.Distance)
}

func TestALTPrunesSearchSpace(t *testing.T) {
	// The landmark bounds must direct the search: ALT should settle fewer
	// vertices than plain Dijkstra on long queries.
	g := testutil.SmallRoad(2500, 403)
	ix := alt.Build(g).NewSearcher()
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
	ix := alt.Build(g).NewSearcher()
	if d := ix.Distance(0, 3); d != graph.Infinity {
		t.Errorf("cross-component distance = %d, want Infinity", d)
	}
	if p, _ := testutil.Path(ix.OpenPath, 0, 3); p != nil {
		t.Errorf("cross-component path = %v", p)
	}
}

// TestALTLandmarksPerComponent: on components {0, 1, 2}, the path 3..18
// and the isolated vertex 19, selection leaves the first component once it
// is exhausted, picks no vertex twice, and gives the path landmarks that
// direct a query along it.
func TestALTLandmarksPerComponent(t *testing.T) {
	edges := [][3]int64{{0, 1, 1}, {1, 2, 1}}
	for v := int64(3); v < 18; v++ {
		edges = append(edges, [3]int64{v, v + 1, 1})
	}
	g := weighted(t, 20, edges)
	ix := alt.Build(g)
	landmarks := alt.Landmarks(ix)
	seen := map[graph.VertexID]bool{}
	onPath := false
	for _, l := range landmarks {
		if seen[l] {
			t.Fatalf("landmarks %v select %d twice", landmarks, l)
		}
		seen[l] = true
		onPath = onPath || (l >= 3 && l <= 18)
	}
	if !onPath {
		t.Fatalf("landmarks %v: none on the path 3..18", landmarks)
	}
	sr := ix.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), sr.Distance)
	// With no landmark on the path the query is a plain Dijkstra, which
	// settles the whole path before it reaches the end.
	sr.Distance(10, 18)
	plain := dijkstra.NewContext(g).Run([]graph.VertexID{10}, dijkstra.Options{Targets: []graph.VertexID{18}})
	if sr.SettledLast() >= plain {
		t.Errorf("ALT settled %d on the path, Dijkstra %d", sr.SettledLast(), plain)
	}
}

// TestALTDistancesBeyondInt32: a landmark with a distance an int32 cannot
// hold leaves the table, and every answer stays exact.
func TestALTDistancesBeyondInt32(t *testing.T) {
	g := weighted(t, 6, [][3]int64{{0, 1, 1 << 30}, {1, 2, 1<<30 + 1}, {2, 3, 1<<30 + 2}, {3, 4, 1<<30 + 3}, {4, 5, 1<<30 + 4}})
	ix := alt.Build(g).NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.OpenPath)
}

// TestALTConsistentBeyondInt32: on a graph with more than one path between
// vertices, a landmark kept at some vertices and dropped at others would
// make the bound inconsistent, and a settled vertex that is never reopened
// would carry a too-long label. Vertices 0..5 are the gadget: L=0 is the
// first landmark; d(L, y=1) fits an int32 and d(L, x=2), d(L, s=4), d(L,
// q=5) do not. With L kept at y alone, x settles through q before y pops
// and dist(s, t=3) comes out 2^30+6 instead of 2^30+2. Fifteen two-edge
// spurs hang off L, each ending 2(2^31-1) away: farthest-point selection
// takes their ends for the other fifteen landmarks, every one too far from
// t to bound anything, so L's bound alone steers the query.
func TestALTConsistentBeyondInt32(t *testing.T) {
	edges := [][3]int64{{0, 1, math.MaxInt32 - 1}, {0, 3, 1 << 30}, {1, 2, 1}, {2, 3, 1 << 30}, {4, 1, 1}, {4, 5, 1}, {5, 2, 5}}
	for spur := int64(6); spur < 36; spur += 2 {
		edges = append(edges, [3]int64{0, spur, math.MaxInt32}, [3]int64{spur, spur + 1, math.MaxInt32})
	}
	g := weighted(t, 36, edges)
	ix := alt.Build(g).NewSearcher()
	if d := ix.Distance(4, 3); d != 1<<30+2 {
		t.Errorf("dist(4, 3) = %d, want %d", d, 1<<30+2)
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.OpenPath)
}

// weighted builds an n-vertex graph with the given {u, v, weight} edges.
func weighted(t *testing.T, n int, edges [][3]int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(geom.Point{X: int32(i)})
	}
	for _, e := range edges {
		if err := b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.Weight(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestALTStats: an index of L landmarks over n vertices is an n x L table
// of int32 distances and the L landmark ids.
func TestALTStats(t *testing.T) {
	g := testutil.SmallRoad(400, 407)
	if got, want := alt.Build(g).SizeBytes(), int64(4*16*(g.NumVertices()+1)); got != want {
		t.Errorf("SizeBytes = %d, want %d for 16 landmarks", got, want)
	}
	// A graph with fewer vertices than landmarks has one per vertex.
	tiny := testutil.Figure1()
	if got, want := alt.Build(tiny).SizeBytes(), int64(4*tiny.NumVertices()*(tiny.NumVertices()+1)); got != want {
		t.Errorf("Figure 1: SizeBytes = %d, want %d for one landmark per vertex", got, want)
	}
}

// TestSearcherGenerationWrap runs ALT's searcher across the wrap of its
// stamp; its A* loop writes its labels itself.
func TestSearcherGenerationWrap(t *testing.T) {
	testutil.CheckAcrossGenerationWrap(t, func(g *graph.Graph) (testutil.DistanceFunc, func(uint32)) {
		s := alt.Build(g).NewSearcher()
		return s.Distance, s.SetStamp
	})
}
