package workload

import (
	"testing"

	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
)

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return gen.Generate(gen.Params{N: n, Seed: 21})
}

func TestLInfSets(t *testing.T) {
	g := testGraph(t, 2500)
	sets, err := LInfSets(g, Config{PairsPerSet: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 10 {
		t.Fatalf("got %d sets, want 10", len(sets))
	}
	for i, qs := range sets {
		if len(qs.Pairs) == 0 {
			t.Errorf("%s is empty", qs.Name)
		}
		if i > 0 && qs.Lo < sets[i-1].Hi {
			t.Errorf("%s range [%d,%d) overlaps previous [%d,%d)", qs.Name, qs.Lo, qs.Hi, sets[i-1].Lo, sets[i-1].Hi)
		}
		for _, p := range qs.Pairs {
			if p.S == p.T {
				t.Errorf("%s has degenerate pair %v", qs.Name, p)
			}
			d := g.Coord(p.S).LInf(g.Coord(p.T))
			if d < qs.Lo || d >= qs.Hi {
				t.Errorf("%s pair (%d,%d): L-inf %d outside [%d,%d)", qs.Name, p.S, p.T, d, qs.Lo, qs.Hi)
			}
		}
	}
	// Monotonicity of bucket midpoints: Qi must contain longer-range queries
	// than Qi-1 (the defining property of the paper's sets).
	for i := 1; i < len(sets); i++ {
		if sets[i].Lo <= sets[i-1].Lo {
			t.Errorf("bucket lower bounds must grow: %d then %d", sets[i-1].Lo, sets[i].Lo)
		}
	}
}

func TestLInfSetsDeterministic(t *testing.T) {
	g := testGraph(t, 900)
	a, err := LInfSets(g, Config{PairsPerSet: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LInfSets(g, Config{PairsPerSet: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Pairs) != len(b[i].Pairs) {
			t.Fatalf("set %d sizes differ", i)
		}
		for j := range a[i].Pairs {
			if a[i].Pairs[j] != b[i].Pairs[j] {
				t.Fatalf("set %d pair %d differs", i, j)
			}
		}
	}
}

func TestLInfSetsTooSmallGraph(t *testing.T) {
	b := graph.NewBuilder(1)
	b.AddVertex(testGraph(t, 4).Coord(0))
	g := b.Build()
	if _, err := LInfSets(g, Config{}); err == nil {
		t.Error("expected error for single-vertex graph")
	}
}

func TestNetworkDistanceSets(t *testing.T) {
	g := testGraph(t, 1600)
	sets, err := NetworkDistanceSets(g, Config{PairsPerSet: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 10 {
		t.Fatalf("got %d sets, want 10", len(sets))
	}
	ctx := dijkstra.NewContext(g)
	for _, rs := range sets {
		if len(rs.Pairs) == 0 {
			t.Errorf("%s is empty", rs.Name)
			continue
		}
		if rs.Name[0] != 'R' {
			t.Errorf("set name %q should start with R", rs.Name)
		}
		// Verify each pair's true network distance is in the declared range.
		for _, p := range rs.Pairs[:min(len(rs.Pairs), 10)] {
			d := ctx.Distance(p.S, p.T)
			if d < rs.Lo || d >= rs.Hi {
				t.Errorf("%s pair (%d,%d): network dist %d outside [%d,%d)", rs.Name, p.S, p.T, d, rs.Lo, rs.Hi)
			}
		}
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Lo < sets[i-1].Hi {
			t.Errorf("R ranges overlap at %d", i)
		}
	}
}

func TestEstimateDiameter(t *testing.T) {
	g := testGraph(t, 400)
	ld := EstimateDiameter(g, 1)
	if ld <= 0 {
		t.Fatalf("diameter estimate %d must be positive", ld)
	}
	// The estimate must be achievable: it came from an actual Dijkstra run,
	// so it is at most the true diameter and at least the eccentricity of
	// one vertex. Check it is at least as large as a random pair's distance
	// divided by 2 (double sweep lower-bound property).
	ctx := dijkstra.NewContext(g)
	d := ctx.Distance(0, graph.VertexID(g.NumVertices()-1))
	if ld < d/2 {
		t.Errorf("diameter estimate %d implausibly small vs sample distance %d", ld, d)
	}
}

func TestLadder(t *testing.T) {
	b := ladder(10, 10240)
	if len(b) != 11 {
		t.Fatalf("ladder length %d, want 11", len(b))
	}
	if b[0] != 10 || b[10] != 10240 {
		t.Errorf("ladder endpoints [%d, %d], want [10, 10240]", b[0], b[10])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("ladder not strictly increasing at %d: %v", i, b)
		}
	}
	// Degenerate input gets widened rather than panicking.
	b = ladder(100, 50)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("degenerate ladder not increasing: %v", b)
		}
	}
}
