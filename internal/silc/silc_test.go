package silc_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
)

func build(t *testing.T, g *graph.Graph) *silc.Index {
	t.Helper()
	ix, err := silc.Build(g, testutil.Must(ch.Build(g, ch.Options{})))
	if err != nil {
		t.Fatalf("silc.Build: %v", err)
	}
	return ix
}

func TestSILCFigure1Partition(t *testing.T) {
	// §3.4's worked example: in the partition of V \ {v8}, the shortest
	// paths from v8 to v4, v5, v6, v7 leave through v6, and those to v1
	// and v3 leave through v1.
	g := testutil.Figure1()
	ix := build(t, g)
	behindV6 := []graph.VertexID{testutil.V4, testutil.V5, testutil.V6, testutil.V7}
	for _, target := range behindV6 {
		path, _ := testutil.Path(ix.NewSearcher().OpenPath, testutil.V8, target)
		if len(path) < 2 || path[1] != testutil.V6 {
			t.Errorf("path v8 -> v%d should leave through v6, got %v", target+1, path)
		}
	}
	for _, target := range []graph.VertexID{testutil.V1, testutil.V3} {
		path, _ := testutil.Path(ix.NewSearcher().OpenPath, testutil.V8, target)
		if len(path) < 2 || path[1] != testutil.V1 {
			t.Errorf("path v8 -> v%d should leave through v1, got %v", target+1, path)
		}
	}
}

func TestSILCExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.NewSearcher().OpenPath)
}

func TestSILCRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(900, 201)
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 300, 71), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 150, 73), ix.NewSearcher().OpenPath)
}

func TestSILCAdversarialGraph(t *testing.T) {
	// Random non-planar graph with colliding coordinates possible.
	g := gen.RandomConnected(150, 250, 40, 203)
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g)[:3000], ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 79), ix.NewSearcher().OpenPath)
}

func TestSILCCoordinateCollisions(t *testing.T) {
	// All vertices at the same point: every region degenerates to a
	// collision cell and the exception table must carry all lookups.
	b := graph.NewBuilder(6)
	p := testutil.Figure1().Coord(0)
	for i := 0; i < 6; i++ {
		b.AddVertex(p)
	}
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), graph.Weight(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ix := build(t, g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), ix.NewSearcher().OpenPath)
}

func TestSILCDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(2, 3, 4)
	g := b.Build()
	ix := build(t, g)
	if d := ix.Distance(0, 2); d != graph.Infinity {
		t.Errorf("distance across components = %d, want Infinity", d)
	}
	if p, _ := testutil.Path(ix.NewSearcher().OpenPath, 0, 3); p != nil {
		t.Errorf("path across components = %v, want nil", p)
	}
	if d := ix.Distance(0, 1); d != 3 {
		t.Errorf("within-component distance = %d, want 3", d)
	}
}

func TestSILCIntervalBound(t *testing.T) {
	// The concise representation must stay near the O(sqrt n) bound per
	// vertex (§3.4); allow a generous constant.
	g := testutil.SmallRoad(2500, 207)
	ix := build(t, g)
	n := float64(g.NumVertices())
	mean := float64(ix.NumIntervals()) / n
	if mean <= 0 {
		t.Fatal("no intervals stored")
	}
	if limit := 20 * sqrt(n); mean > limit {
		t.Errorf("mean intervals per vertex %.1f exceeds 20*sqrt(n) = %.1f", mean, limit)
	}
}

func sqrt(x float64) float64 {
	r := x
	for i := 0; i < 40; i++ {
		r = (r + x/r) / 2
	}
	return r
}

func TestSILCStats(t *testing.T) {
	g := testutil.SmallRoad(400, 211)
	ix := build(t, g)
	if ix.SizeBytes() <= 0 || ix.NumIntervals() <= 0 {
		t.Error("stats must be positive")
	}
}

func TestSILCRejectsEmptyAndHighDegree(t *testing.T) {
	b := graph.NewBuilder(0)
	if _, err := silc.Build(b.Build(), nil); err == nil {
		t.Error("empty graph should be rejected")
	}
	// A star of 255 leaves has a degree the one-byte colors cannot hold.
	b = graph.NewBuilder(256)
	for i := 0; i < 256; i++ {
		b.AddVertex(geom.Point{X: int32(i)})
		if i > 0 {
			_ = b.AddEdge(0, graph.VertexID(i), 1)
		}
	}
	if _, err := silc.Build(b.Build(), nil); err == nil || !strings.Contains(err.Error(), "max degree 255") {
		t.Errorf("a star of 255 leaves: err = %v, want the degree guard", err)
	}
	// The size guard refuses an edgeless graph of 25 001 vertices before
	// the 625 MB next-hop matrix, or anything else, is allocated.
	const n = 25001
	b = graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(geom.Point{X: int32(i)})
	}
	g := b.Build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := silc.Build(g, nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "above the guard of 25000") {
		t.Errorf("a graph of %d vertices: err = %v, want the size guard", n, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= n {
		t.Errorf("the refused build allocated %d B", got)
	}
}

func TestSILCContextCancelled(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	ix := build(t, g)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := ix.DistanceContext(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("DistanceContext err = %v, want context.Canceled", err)
	}
	if _, _, err := ix.NewSearcher().OpenPath(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("OpenPath err = %v, want context.Canceled", err)
	}
}

func TestSILCSameVertex(t *testing.T) {
	g := testutil.Figure1()
	ix := build(t, g)
	if d := ix.Distance(3, 3); d != 0 {
		t.Errorf("dist(v, v) = %d", d)
	}
	if p, d := testutil.Path(ix.NewSearcher().OpenPath, 3, 3); d != 0 || len(p) != 1 {
		t.Errorf("path(v, v) = %v, %d", p, d)
	}
}
