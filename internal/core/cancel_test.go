package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// buildAll builds one index per technique over g, sharing the CH hierarchy
// the way the harness does.
func buildAll(t *testing.T, g *graph.Graph) map[Method]Index {
	t.Helper()
	out := make(map[Method]Index, len(concurrencyMethods))
	var cfg Config
	for _, m := range concurrencyMethods {
		ix, err := BuildIndex(m, g, cfg)
		if err != nil {
			t.Fatalf("BuildIndex(%s): %v", m, err)
		}
		if m == MethodCH {
			cfg.Hierarchy = HierarchyOf(ix)
		}
		out[m] = ix
	}
	return out
}

// TestSearcherContextCancelledAllMethods checks the cancellation contract
// on every technique: a query issued on an already-cancelled context (and
// on an already-expired deadline) aborts with the context's error before
// doing any work, and the aborted searcher remains valid for reuse.
func TestSearcherContextCancelledAllMethods(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	pairs := testutil.SamplePairs(g, 10, 641)
	want := oracleDistances(g, pairs)
	for m, ix := range buildAll(t, g) {
		sr := ix.NewSearcher()

		cancelled, cancelFn := context.WithCancel(context.Background())
		cancelFn()
		if _, err := sr.DistanceContext(cancelled, pairs[0][0], pairs[0][1]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DistanceContext on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		if _, _, err := sr.OpenPath(cancelled, pairs[0][0], pairs[0][1]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OpenPath on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		// Trivial s == t queries are covered by the contract too: no
		// technique's short-circuit may report success on a dead context.
		if _, err := sr.DistanceContext(cancelled, pairs[0][0], pairs[0][0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DistanceContext(s, s) on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		if _, _, err := sr.OpenPath(cancelled, pairs[0][0], pairs[0][0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OpenPath(s, s) on cancelled ctx: err = %v, want context.Canceled", m, err)
		}

		expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		if _, err := sr.DistanceContext(expired, pairs[0][0], pairs[0][1]); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: DistanceContext past deadline: err = %v, want context.DeadlineExceeded", m, err)
		}
		cancelExpired()

		// An aborted searcher must answer correctly afterwards.
		for i, p := range pairs {
			d, err := sr.DistanceContext(context.Background(), p[0], p[1])
			if err != nil {
				t.Fatalf("%s: DistanceContext after abort: %v", m, err)
			}
			if d != want[i] {
				t.Errorf("%s: dist(%d, %d) = %d after abort, want %d", m, p[0], p[1], d, want[i])
			}
		}
	}
}

// TestSettledLastAfterNoSearch requires SettledLast to read 0 after a query
// that searched nothing — a trivial s == t query, or one on a context that
// is already done — on every technique that counts settles, rather than the
// count of the query before it.
func TestSettledLastAfterNoSearch(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	p := testutil.SamplePairs(g, 1, 643)[0]
	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	queries := []struct {
		name string
		run  func(sr Searcher)
	}{
		{"distance s == t", func(sr Searcher) { sr.DistanceContext(context.Background(), p[0], p[0]) }},
		{"path s == t", func(sr Searcher) { sr.OpenPath(context.Background(), p[0], p[0]) }},
		{"distance on done context", func(sr Searcher) { sr.DistanceContext(cancelled, p[0], p[1]) }},
		{"path on done context", func(sr Searcher) { sr.OpenPath(cancelled, p[0], p[1]) }},
	}
	indexes := buildAll(t, g)
	for _, m := range []Method{MethodCH, MethodALT, MethodArcFlags} {
		for _, q := range queries {
			sr := indexes[m].NewSearcher()
			counter := sr.(interface{ SettledLast() int })
			sr.Distance(p[0], p[1])
			if counter.SettledLast() == 0 {
				t.Fatalf("%s: a query between distinct vertices settled nothing", m)
			}
			q.run(sr)
			if n := counter.SettledLast(); n != 0 {
				t.Errorf("%s, %s: SettledLast = %d, want 0", m, q.name, n)
			}
		}
	}
}

// TestPoolContextQueries covers the pool's context convenience and the
// generic (non-accelerated) batch path under cancellation.
func TestPoolContextQueries(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	ix, err := BuildIndex(MethodDijkstra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ix)
	p := testutil.SamplePairs(g, 1, 659)[0]
	if d, err := pool.DistanceContext(context.Background(), p[0], p[1]); err != nil || d != ix.Distance(p[0], p[1]) {
		t.Fatalf("DistanceContext = (%d, %v), want distance %d", d, err, ix.Distance(p[0], p[1]))
	}

	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := pool.DistanceContext(cancelled, p[0], p[1]); !errors.Is(err, context.Canceled) {
		t.Errorf("pool.DistanceContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := pool.BatchDistance(cancelled, []graph.VertexID{p[0]}, []graph.VertexID{p[1]}); !errors.Is(err, context.Canceled) {
		t.Errorf("pool.BatchDistance on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPoolBatchDistanceMatchesPerPair checks Pool.BatchDistance end to end
// for every technique: whether CH's many-to-many or the per-pair loop
// answers it, the matrix of every shape must equal per-pair distances, on
// a road graph and on two copies of one side by side, where half the
// pairs are unreachable; a cancelled batch returns no matrix.
func TestPoolBatchDistanceMatchesPerPair(t *testing.T) {
	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for name, g := range map[string]*graph.Graph{
		"road":           testutil.SmallRoad(900, 951),
		"two components": twoCopies(testutil.SmallRoad(300, 57)),
	} {
		var sources, targets []graph.VertexID
		for _, p := range testutil.SamplePairs(g, 8, 661) {
			sources = append(sources, p[0])
			targets = append(targets, p[1])
		}
		shapes := map[string][2][]graph.VertexID{
			"NxN":             {sources, targets},
			"1xN":             {sources[:1], targets},
			"Nx1":             {sources, targets[:1]},
			"no sources":      {nil, targets},
			"no targets":      {sources, nil},
			"sources=targets": {sources, sources},
		}
		for m, ix := range buildAll(t, g) {
			pool := NewPool(ix)
			sr := ix.NewSearcher()
			unreachable := 0
			for shape, st := range shapes {
				table, err := pool.BatchDistance(context.Background(), st[0], st[1])
				if err != nil {
					t.Fatalf("%s, %s, %s: BatchDistance: %v", name, m, shape, err)
				}
				if len(table) != len(st[0]) {
					t.Fatalf("%s, %s, %s: %d rows, want %d", name, m, shape, len(table), len(st[0]))
				}
				for i, s := range st[0] {
					if len(table[i]) != len(st[1]) {
						t.Fatalf("%s, %s, %s: row %d has %d cells, want %d", name, m, shape, i, len(table[i]), len(st[1]))
					}
					for j, tgt := range st[1] {
						if want := sr.Distance(s, tgt); table[i][j] != want {
							t.Errorf("%s, %s, %s: batch dist(%d, %d) = %d, per-pair = %d", name, m, shape, s, tgt, table[i][j], want)
						}
						if table[i][j] == graph.Infinity {
							unreachable++
						}
					}
				}
			}
			if name == "two components" && unreachable == 0 {
				t.Errorf("%s: no unreachable pair on two components", m)
			}
			if table, err := pool.BatchDistance(cancelled, sources, targets); !errors.Is(err, context.Canceled) || table != nil {
				t.Errorf("%s, %s: cancelled BatchDistance = (%v, %v), want (nil, context.Canceled)", name, m, table, err)
			}
		}
	}
}

// twoCopies returns g and a copy of it to its right as one graph of two
// components (more if g has several).
func twoCopies(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	b := graph.NewBuilder(2 * n)
	shift := g.Bounds().MaxX - g.Bounds().MinX + 1
	for v := 0; v < n; v++ {
		b.AddVertex(g.Coord(graph.VertexID(v)))
	}
	for v := 0; v < n; v++ {
		p := g.Coord(graph.VertexID(v))
		b.AddVertex(geom.Point{X: p.X + shift, Y: p.Y})
	}
	for _, e := range g.Edges() {
		_ = b.AddEdge(e.U, e.V, e.Weight)
		_ = b.AddEdge(e.U+graph.VertexID(n), e.V+graph.VertexID(n), e.Weight)
	}
	return b.Build()
}
