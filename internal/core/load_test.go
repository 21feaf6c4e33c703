package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// saveToFile writes ix with core.SaveIndex and returns the file path.
func saveToFile(t *testing.T, ix core.Index, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveIndex(ix, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stackedCoords returns g with every vertex moved onto the point of the
// first vertex of its group of three: distinct vertices then share Morton
// cells, which is what fills SILC's exception runs.
func stackedCoords(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	coords := append([]geom.Point(nil), g.Coords()...)
	for v := range coords {
		coords[v] = coords[v-v%3]
	}
	stacked, err := graph.FromEdges(coords, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return stacked
}

// TestLoadIndexFileOracle holds the three forms of one index to each other:
// for each serializable technique the freshly built index, the file read
// onto the heap and the file mapped must report the same size and give
// bit-identical distances and paths on every sampled pair.
func TestLoadIndexFileOracle(t *testing.T) {
	road := testutil.SmallRoad(900, 911)
	stacked := stackedCoords(t, testutil.SmallRoad(300, 919))
	for _, tc := range []struct {
		name string
		m    core.Method
		g    *graph.Graph
	}{
		{"ch", core.MethodCH, road},
		{"tnr", core.MethodTNR, road},
		{"silc", core.MethodSILC, road},
		{"silc-stacked", core.MethodSILC, stacked},
		{"pcpd", core.MethodPCPD, road},
		{"pcpd-stacked", core.MethodPCPD, stacked},
	} {
		m, g := tc.m, tc.g
		pairs := testutil.SamplePairs(g, 200, 163)
		pathPairs := testutil.SamplePairs(g, 50, 165)
		built, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatal(err)
		}
		path := saveToFile(t, built, tc.name+".idx")
		if g == stacked {
			// SILC's exception targets and PCPD's collision table keys.
			runs := map[core.Method]int{core.MethodSILC: 5, core.MethodPCPD: 1}[m]
			f, err := binio.OpenFlat(path, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, size := f.SectionInfo(runs); size == 0 {
				t.Errorf("%s: section %d is empty; the graph does not exercise the runs", tc.name, runs)
			}
			f.Close()
		}

		for _, preferMmap := range []bool{false, true} {
			loaded, info, err := core.LoadIndexFile(m, path, g, preferMmap)
			if err != nil {
				t.Fatalf("%s preferMmap=%v: %v", tc.name, preferMmap, err)
			}
			wantMapped := preferMmap && binio.MmapSupported
			if info.Mapped != wantMapped {
				t.Errorf("%s preferMmap=%v: Mapped=%v, want %v", tc.name, preferMmap, info.Mapped, wantMapped)
			}
			if info.SizeBytes <= 0 {
				t.Errorf("%s: SizeBytes=%d, want > 0", tc.name, info.SizeBytes)
			}
			if got, want := loaded.Stats().IndexBytes, built.Stats().IndexBytes; got != want {
				t.Errorf("%s preferMmap=%v: loaded index is %d bytes, built one %d", tc.name, preferMmap, got, want)
			}
			for _, p := range pairs {
				if got, want := loaded.Distance(p[0], p[1]), built.Distance(p[0], p[1]); got != want {
					t.Fatalf("%s preferMmap=%v: dist(%d,%d)=%d, built says %d", tc.name, preferMmap, p[0], p[1], got, want)
				}
			}
			for _, p := range pathPairs {
				gotPath, gotD := loaded.ShortestPath(p[0], p[1])
				wantPath, wantD := built.ShortestPath(p[0], p[1])
				if gotD != wantD || !reflect.DeepEqual(gotPath, wantPath) {
					t.Fatalf("%s preferMmap=%v: path(%d,%d) differs from built index", tc.name, preferMmap, p[0], p[1])
				}
			}
			if err := core.CloseIndex(loaded); err != nil {
				t.Errorf("%s: CloseIndex: %v", tc.name, err)
			}
		}
		testutil.CheckPathsAgainstDijkstra(t, g, pathPairs, built.NewSearcher().OpenPath)
	}
}

// TestNonFlatFilesRejected hands every index loader files that are not
// flat containers — empty, a few bytes, and the magic the deleted v1
// format began with — heap and mapped: each must answer binio.ErrNotFlat,
// never panic.
func TestNonFlatFilesRejected(t *testing.T) {
	g := testutil.SmallRoad(200, 913)
	files := map[string][]byte{
		"empty":    nil,
		"short":    []byte("RNF"),
		"v1 magic": append([]byte("ROADNET-CH\n\x01"), make([]byte, 64)...),
	}
	for fname, data := range files {
		path := testutil.TempFile(t, "index", data)
		for _, m := range core.FileMethods() {
			for _, preferMmap := range []bool{false, true} {
				if _, _, err := core.LoadIndexFile(m, path, g, preferMmap); !errors.Is(err, binio.ErrNotFlat) {
					t.Errorf("%s (mmap=%v) on %s file: got %v, want binio.ErrNotFlat", m, preferMmap, fname, err)
				}
			}
		}
	}
}

// TestLoadIndexFileErrors covers the failure paths: missing file, garbage
// content, and a flat file of the wrong technique.
func TestLoadIndexFileErrors(t *testing.T) {
	g := testutil.SmallRoad(200, 915)

	if _, _, err := core.LoadIndexFile(core.MethodCH, filepath.Join(t.TempDir(), "absent.idx"), g, true); err == nil {
		t.Error("missing file must fail")
	}

	garbage := testutil.TempFile(t, "garbage.idx", []byte("not an index at all"))
	if _, _, err := core.LoadIndexFile(core.MethodCH, garbage, g, true); err == nil {
		t.Error("garbage file must fail")
	}

	chIx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	chPath := saveToFile(t, chIx, "ch.idx")
	if _, _, err := core.LoadIndexFile(core.MethodSILC, chPath, g, true); err == nil {
		t.Error("cross-method flat load must fail")
	}
	if _, _, err := core.LoadIndexFile(core.MethodDijkstra, chPath, g, true); err == nil {
		t.Error("non-serializable method must fail")
	}
}

// TestMappedSearchersShareIndex checks that searchers over an mmap-loaded
// index work and agree with the convenience methods.
func TestMappedSearchersShareIndex(t *testing.T) {
	g := testutil.SmallRoad(400, 917)
	built, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := saveToFile(t, built, "ch.idx")
	loaded, _, err := core.LoadIndexFile(core.MethodCH, path, g, true)
	if err != nil {
		t.Fatal(err)
	}
	defer core.CloseIndex(loaded)
	s := loaded.NewSearcher()
	for _, p := range testutil.SamplePairs(g, 100, 169) {
		if got, want := s.Distance(p[0], p[1]), loaded.Distance(p[0], p[1]); got != want {
			t.Fatalf("searcher dist(%d,%d)=%d, index says %d", p[0], p[1], got, want)
		}
	}
}
