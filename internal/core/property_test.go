package core_test

import (
	"sync"
	"testing"
	"testing/quick"

	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// TestPropertyAllMethodsAgree drives testing/quick over random graph
// shapes: for any seeded random connected graph, every technique must
// return exactly Dijkstra's distances for all sampled pairs.
func TestPropertyAllMethodsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	methods := append(core.AllMethods(), core.MethodALT)
	check := func(seed int64, sizeSel, extraSel uint8) bool {
		n := 20 + int(sizeSel)%120
		extra := int(extraSel) % (2 * n)
		g := gen.RandomConnected(n, extra, 64, seed)
		ctx := dijkstra.NewContext(g)
		pairs := testutil.SamplePairs(g, 40, seed+1)
		for _, m := range methods {
			ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
			if err != nil {
				t.Logf("seed %d: build %s: %v", seed, m, err)
				return false
			}
			for _, p := range pairs {
				if ix.Distance(p[0], p[1]) != ctx.Distance(p[0], p[1]) {
					t.Logf("seed %d: %s disagrees on (%d, %d)", seed, m, p[0], p[1])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPathsAreValid checks, for random road networks, that every
// technique returns structurally valid paths whose weights match the
// reported distance.
func TestPropertyPathsAreValid(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	methods := append(core.AllMethods(), core.MethodALT)
	check := func(seed int64) bool {
		g := testutil.SmallRoad(250, seed)
		ctx := dijkstra.NewContext(g)
		pairs := testutil.SamplePairs(g, 20, seed+3)
		for _, m := range methods {
			ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
			if err != nil {
				return false
			}
			for _, p := range pairs {
				path, d := ix.ShortestPath(p[0], p[1])
				want := ctx.Distance(p[0], p[1])
				if want >= graph.Infinity {
					if path != nil {
						return false
					}
					continue
				}
				if d != want || len(path) == 0 || path[0] != p[0] || path[len(path)-1] != p[1] {
					return false
				}
				if dijkstra.PathWeight(g, path) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDistanceSymmetry: on undirected graphs dist(s, t) must equal
// dist(t, s) for every technique.
func TestPropertyDistanceSymmetry(t *testing.T) {
	g := testutil.SmallRoad(300, 601)
	methods := append(core.AllMethods(), core.MethodALT)
	var indexes []core.Index
	for _, m := range methods {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, ix)
	}
	check := func(a, b uint16) bool {
		s := graph.VertexID(int(a) % g.NumVertices())
		u := graph.VertexID(int(b) % g.NumVertices())
		for _, ix := range indexes {
			if ix.Distance(s, u) != ix.Distance(u, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTriangleInequality: distances returned by an exact index
// must satisfy d(a, c) <= d(a, b) + d(b, c).
func TestPropertyTriangleInequality(t *testing.T) {
	g := testutil.SmallRoad(300, 607)
	ix, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(x, y, z uint16) bool {
		a := graph.VertexID(int(x) % g.NumVertices())
		b := graph.VertexID(int(y) % g.NumVertices())
		c := graph.VertexID(int(z) % g.NumVertices())
		dab, dbc, dac := ix.Distance(a, b), ix.Distance(b, c), ix.Distance(a, c)
		if dab >= graph.Infinity || dbc >= graph.Infinity {
			return true
		}
		return dac <= dab+dbc
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCHConcurrentSearchers verifies that one immutable Hierarchy serves
// multiple goroutines through per-goroutine searchers.
func TestCHConcurrentSearchers(t *testing.T) {
	g := testutil.SmallRoad(900, 613)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	ctx := dijkstra.NewContext(g)
	pairs := testutil.SamplePairs(g, 64, 5)
	want := make([]int64, len(pairs))
	for i, p := range pairs {
		want[i] = ctx.Distance(p[0], p[1])
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := h.NewSearcher()
			for rep := 0; rep < 20; rep++ {
				for i, p := range pairs {
					if got := s.Distance(p[0], p[1]); got != want[i] {
						select {
						case errCh <- errMismatch(p[0], p[1], got, want[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

type mismatchError struct {
	s, t      graph.VertexID
	got, want int64
}

func (e mismatchError) Error() string {
	return "concurrent searcher mismatch"
}

func errMismatch(s, t graph.VertexID, got, want int64) error {
	return mismatchError{s, t, got, want}
}
