package ch_test

import (
	"context"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

func TestCHFigure1Examples(t *testing.T) {
	g := testutil.Figure1()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	// The paper's worked query: dist(v3, v7) = 6.
	if d := s.Distance(testutil.V3, testutil.V7); d != 6 {
		t.Errorf("dist(v3, v7) = %d, want 6", d)
	}
	// And the path must unpack to original edges only.
	path, d := testutil.Path(s.OpenPath, testutil.V3, testutil.V7)
	if d != 6 {
		t.Errorf("path dist(v3, v7) = %d, want 6", d)
	}
	if w := dijkstra.PathWeight(g, path); w != 6 {
		t.Errorf("unpacked path %v weighs %d, want 6", path, w)
	}
}

func TestCHExhaustiveFigure1(t *testing.T) {
	g := testutil.Figure1()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), s.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.AllPairs(g), s.OpenPath)
}

func TestCHRoadNetworkDistances(t *testing.T) {
	g := testutil.SmallRoad(1600, 31)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 400, 9), s.Distance)
}

func TestCHRoadNetworkPaths(t *testing.T) {
	g := testutil.SmallRoad(900, 33)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 11), s.OpenPath)
}

func TestCHAdversarialGraph(t *testing.T) {
	// Non-planar random graph: heuristics are useless but answers must stay
	// exact.
	g := gen.RandomConnected(200, 400, 50, 77)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 500, 13), s.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 100, 17), s.OpenPath)
}

func TestCHTinyGraphs(t *testing.T) {
	// Path graph 0-1-2 and a single edge: degenerate hierarchies.
	b := graph.NewBuilder(3)
	for i := 0; i < 3; i++ {
		b.AddVertex(testutil.Figure1().Coord(graph.VertexID(i)))
	}
	if err := b.AddEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	if d := s.Distance(0, 2); d != 9 {
		t.Errorf("dist(0, 2) = %d, want 9", d)
	}
	path, d := testutil.Path(s.OpenPath, 0, 2)
	if d != 9 || len(path) != 3 {
		t.Errorf("path = %v dist %d, want [0 1 2] 9", path, d)
	}
	if d := s.Distance(1, 1); d != 0 {
		t.Errorf("dist(v, v) = %d, want 0", d)
	}
	if p, d := testutil.Path(s.OpenPath, 1, 1); d != 0 || len(p) != 1 {
		t.Errorf("path(v, v) = %v %d", p, d)
	}
}

func TestCHDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddVertex(testutil.Figure1().Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.Build()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	if d := s.Distance(0, 3); d < graph.Infinity {
		t.Errorf("dist across components = %d, want Infinity", d)
	}
	if p, _ := testutil.Path(s.OpenPath, 0, 3); p != nil {
		t.Errorf("path across components = %v, want nil", p)
	}
}

func TestCHUnpackedPathHasNoShortcuts(t *testing.T) {
	g := testutil.SmallRoad(900, 41)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	for _, p := range testutil.SamplePairs(g, 100, 19) {
		path, d := testutil.Path(s.OpenPath, p[0], p[1])
		if d >= graph.Infinity {
			continue
		}
		for i := 0; i+1 < len(path); i++ {
			if _, ok := g.HasEdge(path[i], path[i+1]); !ok {
				t.Fatalf("hop (%d, %d) of unpacked path is not an original edge", path[i], path[i+1])
			}
		}
	}
}

func TestCHSearchSpaceSmallerThanBidirectional(t *testing.T) {
	// The point of CH (§3.2): it avoids visiting low-ranked vertices, so its
	// search space must be far below the bidirectional baseline's.
	g := testutil.SmallRoad(2500, 43)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	bi := dijkstra.NewBidirectional(g)
	var chSettled, biSettled int
	for _, p := range testutil.SamplePairs(g, 50, 23) {
		s.Distance(p[0], p[1])
		chSettled += s.SettledLast()
		biSettled += bi.Query(p[0], p[1]).Settled
	}
	if chSettled*2 >= biSettled {
		t.Errorf("CH settled %d vs bidirectional %d; expected less than half", chSettled, biSettled)
	}
}

func TestCHStatsReporting(t *testing.T) {
	g := testutil.SmallRoad(400, 47)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	if h.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	if h.NumShortcuts() < 0 {
		t.Error("NumShortcuts negative")
	}
	if h.Graph() != g {
		t.Error("Graph() must return the original network")
	}
}

func TestCHWitnessLimitVariants(t *testing.T) {
	// A tiny witness budget adds more shortcuts but must stay exact.
	g := testutil.SmallRoad(400, 53)
	loose := testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: 2}))
	tight := testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: 1000}))
	if loose.NumShortcuts() < tight.NumShortcuts() {
		t.Errorf("budget 2 made %d shortcuts, budget 1000 made %d; expected more with smaller budget",
			loose.NumShortcuts(), tight.NumShortcuts())
	}
	s := loose.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 29), s.Distance)
}

func TestCHManyToMany(t *testing.T) {
	g := testutil.SmallRoad(900, 59)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	sources := []graph.VertexID{0, 5, 17, 101, 333}
	targets := []graph.VertexID{2, 5, 60, 200, 400, 512}
	table := testutil.Must(h.ManyToManyContext(context.Background(), sources, targets))
	ctx := dijkstra.NewContext(g)
	for i, s := range sources {
		for j, tt := range targets {
			if want := ctx.Distance(s, tt); table[i][j] != want {
				t.Errorf("ManyToManyContext[%d][%d] = %d, want %d", i, j, table[i][j], want)
			}
		}
	}
}

func TestCHStallingAgreesWithNoStalling(t *testing.T) {
	g := testutil.SmallRoad(1600, 61)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	stalling := h.NewSearcher()
	plain := h.NewSearcher()
	plain.DisableStalling = true
	var stalledSettled, plainSettled int
	for _, p := range testutil.SamplePairs(g, 300, 37) {
		a := stalling.Distance(p[0], p[1])
		stalledSettled += stalling.SettledLast()
		b := plain.Distance(p[0], p[1])
		plainSettled += plain.SettledLast()
		if a != b {
			t.Fatalf("stalling changed dist(%d, %d): %d vs %d", p[0], p[1], a, b)
		}
	}
	if stalledSettled > plainSettled {
		t.Errorf("stalling settled %d > plain %d; expected pruning", stalledSettled, plainSettled)
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 41), stalling.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 60, 43), stalling.OpenPath)
}

func TestCHManyToManyEmpty(t *testing.T) {
	g := testutil.Figure1()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	if tbl := testutil.Must(h.ManyToManyContext(context.Background(), nil, nil)); len(tbl) != 0 {
		t.Errorf("empty many-to-many returned %v", tbl)
	}
	tbl := testutil.Must(h.ManyToManyContext(context.Background(), []graph.VertexID{0}, nil))
	if len(tbl) != 1 || len(tbl[0]) != 0 {
		t.Errorf("one-to-none table shape wrong: %v", tbl)
	}
}
