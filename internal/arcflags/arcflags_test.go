package arcflags_test

import (
	"testing"

	"roadnet/internal/arcflags"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/workload"
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

// TestArcFlagsPruneSearch holds the flag-pruned search to the unpruned one
// it is made of, bidirectional Dijkstra: the flags must settle fewer.
func TestArcFlagsPruneSearch(t *testing.T) {
	g := testutil.SmallRoad(2500, 703)
	ix := build(g).NewSearcher()
	bi := dijkstra.NewBidirectional(g)
	var flagged, plain int
	for _, p := range testutil.SamplePairs(g, 30, 107) {
		if p[0] == p[1] {
			continue
		}
		ix.Distance(p[0], p[1])
		flagged += ix.SettledLast()
		plain += bi.Query(p[0], p[1]).Settled
	}
	if flagged >= plain {
		t.Errorf("arc flags settled %d >= bidirectional Dijkstra %d; no pruning", flagged, plain)
	}
}

// TestArcFlagsSettledCount pins the work of the two-sided query in the
// paper's machine-independent unit: vertices settled by both searches over
// NH's Q10 pairs (workload seed 1), each answer held to bidirectional
// Dijkstra. A backward search that ignored the flags would still answer
// right, and only this count would show it.
func TestArcFlagsSettledCount(t *testing.T) {
	g, err := gen.GeneratePreset("NH")
	if err != nil {
		t.Fatal(err)
	}
	sets, err := workload.LInfSets(g, workload.Config{PairsPerSet: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sr, bi := build(g).NewSearcher(), dijkstra.NewBidirectional(g)
	settled := 0
	for _, p := range sets[len(sets)-1].Pairs {
		if d, want := sr.Distance(p.S, p.T), bi.Distance(p.S, p.T); d != want {
			t.Fatalf("dist(%d, %d) = %d, want %d", p.S, p.T, d, want)
		}
		settled += sr.SettledLast()
	}
	if want := 16521; settled != want {
		t.Errorf("Q10 settled %d vertices, pinned at %d", settled, want)
	}
}

func TestSearcherGenerationWrap(t *testing.T) {
	testutil.CheckAcrossGenerationWrap(t, func(g *graph.Graph) (testutil.DistanceFunc, func(uint32)) {
		s := build(g).NewSearcher()
		return s.Distance, s.SetStamp
	})
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
