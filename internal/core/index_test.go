package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// TestDefaultSearcherLazyAndExact holds every way of getting an Index — all
// seven methods built, the three serializable ones also read onto the heap
// and mapped — to the one-default-searcher contract: constructing or
// loading the index makes no searcher, the first Distance does, and the
// Index's own answers are those of a fresh searcher.
func TestDefaultSearcherLazyAndExact(t *testing.T) {
	g := testutil.SmallRoad(400, 977)
	pairs := testutil.SamplePairs(g, 60, 983)
	check := func(t *testing.T, ix Index) {
		t.Helper()
		in := ix.(*index)
		if in.def != nil {
			t.Fatal("the index came with a default searcher before any query")
		}
		fresh := ix.NewSearcher()
		if in.def != nil {
			t.Fatal("NewSearcher made the default searcher")
		}
		for _, p := range pairs {
			if got, want := ix.Distance(p[0], p[1]), fresh.Distance(p[0], p[1]); got != want {
				t.Fatalf("Index.Distance(%d, %d) = %d, a fresh searcher says %d", p[0], p[1], got, want)
			}
			gotPath, gotD := ix.ShortestPath(p[0], p[1])
			wantPath, wantD := testutil.Path(fresh.OpenPath, p[0], p[1])
			if gotD != wantD || !slices.Equal(gotPath, wantPath) {
				t.Fatalf("Index.ShortestPath(%d, %d) differs from a fresh searcher's", p[0], p[1])
			}
		}
		if in.def == nil {
			t.Fatal("Index.Distance did not keep its searcher")
		}
	}
	for _, m := range concurrencyMethods {
		built, err := BuildIndex(m, g, Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		// The file is written before built is queried.
		var path string
		if m == MethodCH || m == MethodTNR || m == MethodSILC {
			path = filepath.Join(t.TempDir(), string(m)+".idx")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveIndex(built, f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(string(m)+"/built", func(t *testing.T) { check(t, built) })
		if path == "" {
			continue
		}
		for _, mode := range []struct {
			name string
			mmap bool
		}{{"heap", false}, {"mmap", true}} {
			t.Run(string(m)+"/"+mode.name, func(t *testing.T) {
				loaded, _, err := LoadIndexFile(m, path, g, mode.mmap)
				if err != nil {
					t.Fatal(err)
				}
				defer CloseIndex(loaded)
				check(t, loaded)
			})
		}
	}
}

// TestFlawedTNRRefused: no serving configuration may select the flawed
// Appendix B access nodes. BuildIndex refuses the option, and a file saved
// from such an index — tnr.Build makes one, as the Appendix B experiment
// does — does not load.
func TestFlawedTNRRefused(t *testing.T) {
	g := testutil.SmallRoad(400, 977)
	opts := tnr.Options{GridSize: 8, Access: tnr.AccessFlawedBast}
	if _, err := BuildIndex(MethodTNR, g, Config{TNR: opts}); !errors.Is(err, ErrFlawedTNR) {
		t.Errorf("BuildIndex: err = %v, want ErrFlawedTNR", err)
	}
	var buf bytes.Buffer
	if err := testutil.Must(tnr.Build(g, opts)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(MethodTNR, &buf, g); !errors.Is(err, ErrFlawedTNR) {
		t.Errorf("LoadIndex: err = %v, want ErrFlawedTNR", err)
	}
}

// TestBaselineIndexAllocs: the baseline has no index, so building it must
// not allocate the two per-vertex label sets of a bidirectional search —
// those belong to searchers.
func TestBaselineIndexAllocs(t *testing.T) {
	g := testutil.SmallRoad(400, 977)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildIndex(MethodDijkstra, g, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("BuildIndex(dijkstra) made %.0f allocations, want at most 3 (the index and its searcher factory)", allocs)
	}
}

// TestWeightOverflowRefused is the reproducer of the silent int32 wrap: on
// a 5-cycle whose edges weigh 1<<30+5 the one shortcut CH needs is 2^31+10
// long. Every method must either refuse the network with
// graph.ErrWeightOverflow or answer all 20 ordered pairs exactly.
func TestWeightOverflowRefused(t *testing.T) {
	const n, w = 5, 1<<30 + 5
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddVertex(testutil.Figure1().Coord(graph.VertexID(v)))
	}
	for v := 0; v < n; v++ {
		if err := b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			ix, err := BuildIndex(m, g, Config{TNR: tnr.Options{GridSize: 8}})
			if err != nil {
				if !errors.Is(err, graph.ErrWeightOverflow) {
					t.Fatalf("build: %v, want an index or graph.ErrWeightOverflow", err)
				}
				return
			}
			testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix.Distance)
		})
	}
}
