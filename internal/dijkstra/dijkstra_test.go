package dijkstra_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// figure1Distances lists ground-truth distances on the paper's Figure 1
// network, verified by hand against the paper's worked examples.
var figure1Distances = []struct {
	s, t graph.VertexID
	d    int64
}{
	{testutil.V3, testutil.V8, 2}, // via v1 (the c1 shortcut example)
	{testutil.V3, testutil.V7, 6}, // the paper's CH query example
	{testutil.V1, testutil.V7, 5}, // the paper's TNR query example
	{testutil.V8, testutil.V4, 3}, // SILC: passes through v6
	{testutil.V8, testutil.V5, 3},
	{testutil.V8, testutil.V6, 2},
	{testutil.V8, testutil.V7, 4},
	{testutil.V8, testutil.V1, 1},
	{testutil.V8, testutil.V3, 2},
	{testutil.V8, testutil.V2, 2},
	{testutil.V7, testutil.V6, 2}, // the c2 shortcut
	{testutil.V7, testutil.V8, 4}, // the c3 shortcut
	{testutil.V1, testutil.V1, 0},
}

func TestDijkstraFigure1(t *testing.T) {
	g := testutil.Figure1()
	ctx := dijkstra.NewContext(g)
	for _, c := range figure1Distances {
		if got := ctx.Distance(c.s, c.t); got != c.d {
			t.Errorf("dist(v%d, v%d) = %d, want %d", c.s+1, c.t+1, got, c.d)
		}
	}
}

func TestDijkstraPathValid(t *testing.T) {
	g := testutil.Figure1()
	ctx := dijkstra.NewContext(g)
	for _, c := range figure1Distances {
		path, d := ctx.ShortestPath(c.s, c.t)
		if d != c.d {
			t.Errorf("ShortestPath(v%d, v%d) distance = %d, want %d", c.s+1, c.t+1, d, c.d)
		}
		if len(path) == 0 || path[0] != c.s || path[len(path)-1] != c.t {
			t.Errorf("path endpoints wrong: %v", path)
		}
		if w := dijkstra.PathWeight(g, path); w != c.d && !(c.s == c.t && w == graph.Infinity) {
			if c.s == c.t {
				continue // single-vertex path has no edges; PathWeight is 0
			}
			t.Errorf("path %v weighs %d, want %d", path, w, c.d)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	// Two disconnected components.
	g := gen.RandomConnected(5, 3, 10, 1)
	// Build a disconnected graph: two copies side by side.
	b := graph.NewBuilder(10)
	for i := 0; i < 10; i++ {
		b.AddVertex(g.Coord(graph.VertexID(i % 5)))
	}
	for _, e := range g.Edges() {
		_ = b.AddEdge(e.U, e.V, e.Weight)
		_ = b.AddEdge(e.U+5, e.V+5, e.Weight)
	}
	dg := b.Build()
	ctx := dijkstra.NewContext(dg)
	if d := ctx.Distance(0, 7); d != graph.Infinity {
		t.Errorf("distance across components = %d, want Infinity", d)
	}
	if p, _ := ctx.ShortestPath(0, 7); p != nil {
		t.Errorf("path across components = %v, want nil", p)
	}
}

func TestDijkstraEarlyTermination(t *testing.T) {
	g := testutil.SmallRoad(900, 5)
	ctx := dijkstra.NewContext(g)
	full := ctx.Run([]graph.VertexID{0}, dijkstra.Options{})
	if full != g.NumVertices() {
		t.Fatalf("full run settled %d of %d vertices", full, g.NumVertices())
	}
	// Terminating at a single nearby target must settle far fewer vertices.
	target := g.Head(0) // a neighbor of vertex 0 exists by connectivity
	few := ctx.Run([]graph.VertexID{0}, dijkstra.Options{Targets: []graph.VertexID{target}})
	if few > full/2 {
		t.Errorf("targeted run settled %d vertices, expected far fewer than %d", few, full)
	}
	if !ctx.Reached(target) {
		t.Error("target not reached")
	}
}

func TestDijkstraMaxDistAndMaxSettled(t *testing.T) {
	g := testutil.SmallRoad(900, 6)
	ctx := dijkstra.NewContext(g)
	ctx.Run([]graph.VertexID{0}, dijkstra.Options{MaxSettled: 10})
	if n := len(ctx.Settled()); n != 10 {
		t.Errorf("MaxSettled: settled %d, want 10", n)
	}
	ctx.Run([]graph.VertexID{0}, dijkstra.Options{MaxDist: 1})
	for _, v := range ctx.Settled() {
		if ctx.Dist(v) > 1 {
			t.Errorf("MaxDist violated: vertex %d at distance %d", v, ctx.Dist(v))
		}
	}
}

func TestDijkstraMultiSource(t *testing.T) {
	g := testutil.Figure1()
	ctx := dijkstra.NewContext(g)
	ctx.Run([]graph.VertexID{testutil.V3, testutil.V7}, dijkstra.Options{})
	// v8 is at distance 2 from v3 and 4 from v7; multi-source takes the min.
	if d := ctx.Dist(testutil.V8); d != 2 {
		t.Errorf("multi-source dist(v8) = %d, want 2", d)
	}
	if d := ctx.Dist(testutil.V5); d != 1 {
		t.Errorf("multi-source dist(v5) = %d, want 1 (from v7)", d)
	}
}

func TestContextReuseAcrossQueries(t *testing.T) {
	g := testutil.SmallRoad(400, 7)
	ctx := dijkstra.NewContext(g)
	fresh := dijkstra.NewContext(g)
	pairs := testutil.SamplePairs(g, 50, 3)
	for _, p := range pairs {
		if got, want := ctx.Distance(p[0], p[1]), fresh.Distance(p[0], p[1]); got != want {
			t.Fatalf("reused context differs: dist(%d,%d)=%d want %d", p[0], p[1], got, want)
		}
	}
}

func TestBidirectionalFigure1(t *testing.T) {
	g := testutil.Figure1()
	bi := dijkstra.NewBidirectional(g)
	for _, c := range figure1Distances {
		r := bi.Query(c.s, c.t)
		if r.Dist != c.d {
			t.Errorf("bidi dist(v%d, v%d) = %d, want %d", c.s+1, c.t+1, r.Dist, c.d)
		}
	}
}

func TestBidirectionalMatchesDijkstraOnRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(900, 11)
	bi := dijkstra.NewBidirectional(g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 1),
		func(s, tt graph.VertexID) int64 { return bi.Query(s, tt).Dist })
}

func TestBidirectionalMatchesDijkstraOnAdversarialGraph(t *testing.T) {
	g := gen.RandomConnected(150, 300, 1000, 99)
	bi := dijkstra.NewBidirectional(g)
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g)[:2000],
		func(s, tt graph.VertexID) int64 { return bi.Query(s, tt).Dist })
}

func TestBidirectionalPaths(t *testing.T) {
	g := testutil.SmallRoad(400, 13)
	bi := dijkstra.NewBidirectional(g)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 2), bi.OpenPath)
}

func TestBidirectionalSameVertex(t *testing.T) {
	g := testutil.Figure1()
	bi := dijkstra.NewBidirectional(g)
	if r := bi.Query(testutil.V4, testutil.V4); r.Dist != 0 {
		t.Errorf("dist(v, v) = %d, want 0", r.Dist)
	}
	if p, _ := testutil.Path(bi.OpenPath, testutil.V4, testutil.V4); len(p) != 1 || p[0] != testutil.V4 {
		t.Errorf("path(v, v) = %v, want [v4]", p)
	}
}

func TestBidirectionalSearchSpaceSmaller(t *testing.T) {
	// §3.1: each bidirectional traversal reaches ~dist/2, so the combined
	// settled count is usually smaller than unidirectional Dijkstra's.
	g := testutil.SmallRoad(2500, 17)
	bi := dijkstra.NewBidirectional(g)
	ctx := dijkstra.NewContext(g)
	var uniTotal, biTotal int
	for _, p := range testutil.SamplePairs(g, 30, 5) {
		if p[0] == p[1] {
			continue
		}
		uniTotal += ctx.Run([]graph.VertexID{p[0]}, dijkstra.Options{Targets: []graph.VertexID{p[1]}})
		biTotal += bi.Query(p[0], p[1]).Settled
	}
	if biTotal >= uniTotal {
		t.Errorf("bidirectional settled %d >= unidirectional %d; expected smaller search space", biTotal, uniTotal)
	}
}

func TestPathWeightRejectsFakePath(t *testing.T) {
	g := testutil.Figure1()
	if w := dijkstra.PathWeight(g, []graph.VertexID{testutil.V1, testutil.V7}); w != graph.Infinity {
		t.Errorf("fake path weight = %d, want Infinity", w)
	}
	if w := dijkstra.PathWeight(g, nil); w != graph.Infinity {
		t.Errorf("empty path weight = %d, want Infinity", w)
	}
	if w := dijkstra.PathWeight(g, []graph.VertexID{testutil.V3, testutil.V1, testutil.V8}); w != 2 {
		t.Errorf("valid path weight = %d, want 2", w)
	}
}

// TestKNearestSettledCount pins the work of the one search that serves
// network k-NN, in the paper's machine-independent unit: vertices settled
// over a fixed query set, the source, the k neighbors and the ties of the
// k-th distance each time. The answers are held to a full sweep ranked by
// (distance, id), which shares no stop rule with KNearest. Stopping at the
// k-th vertex without settling its ties changes an answer here; never
// stopping changes only the count.
func TestKNearestSettledCount(t *testing.T) {
	const (
		k       = 10
		sources = 64
	)
	g := testutil.SmallRoad(800, 4242)
	c, sweep := dijkstra.NewContext(g), dijkstra.NewContext(g)
	settled := 0
	for i := 0; i < sources; i++ {
		s := graph.VertexID((i * 257) % g.NumVertices())
		got, err := c.KNearest(context.Background(), s, k)
		if err != nil {
			t.Fatal(err)
		}
		settled += len(c.Settled())

		sweep.Run([]graph.VertexID{s}, dijkstra.Options{})
		want := slices.DeleteFunc(slices.Clone(sweep.Settled()), func(v graph.VertexID) bool { return v == s })
		slices.SortFunc(want, func(a, b graph.VertexID) int {
			return cmp.Or(cmp.Compare(sweep.Dist(a), sweep.Dist(b)), cmp.Compare(a, b))
		})
		want = want[:k]
		if !slices.Equal(got, want) {
			t.Fatalf("KNearest(%d, %d) = %v, full sweep ranks %v", s, k, got, want)
		}
		for _, v := range got {
			if c.Dist(v) != sweep.Dist(v) {
				t.Fatalf("KNearest(%d, %d): Dist(%d) = %d, full sweep %d", s, k, v, c.Dist(v), sweep.Dist(v))
			}
		}
	}
	if want := 706; settled != want {
		t.Errorf("%d k-NN queries settled %d vertices, pinned at %d", sources, settled, want)
	}
}

func TestContextGenerationWrap(t *testing.T) {
	testutil.CheckAcrossGenerationWrap(t, func(g *graph.Graph) (testutil.DistanceFunc, func(uint32)) {
		c := dijkstra.NewContext(g)
		return c.Distance, c.SetStamp
	})
}

func TestBidirectionalGenerationWrap(t *testing.T) {
	testutil.CheckAcrossGenerationWrap(t, func(g *graph.Graph) (testutil.DistanceFunc, func(uint32)) {
		b := dijkstra.NewBidirectional(g)
		return b.Distance, b.SetStamp
	})
}
