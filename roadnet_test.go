package roadnet_test

import (
	"bytes"
	"context"
	"testing"

	"roadnet"
	"roadnet/internal/testutil"
)

func TestFacadeQuickstart(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 500, Seed: 1})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	d := idx.Distance(s, tt)
	if d <= 0 || d >= roadnet.Infinity {
		t.Fatalf("implausible distance %d", d)
	}
	path, pd := idx.ShortestPath(s, tt)
	if pd != d {
		t.Fatalf("path distance %d != distance %d", pd, d)
	}
	if path[0] != s || path[len(path)-1] != tt {
		t.Fatal("path endpoints wrong")
	}
}

func TestFacadeAllMethodsBuild(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 2})
	for _, m := range append(roadnet.Methods(), roadnet.ALT) {
		idx, err := roadnet.NewIndex(m, g, roadnet.Config{TNR: roadnet.TNROptions{GridSize: 8}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if idx.Method() != m {
			t.Errorf("method mismatch: %s", m)
		}
	}
}

func TestFacadePresets(t *testing.T) {
	ps := roadnet.Presets()
	if len(ps) != 10 {
		t.Fatalf("want 10 presets, got %d", len(ps))
	}
	g, err := roadnet.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty preset graph")
	}
}

func TestFacadeDIMACSRoundtrip(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 200, Seed: 3})
	var gr, co bytes.Buffer
	if err := roadnet.WriteDIMACS(&gr, &co, g); err != nil {
		t.Fatal(err)
	}
	g2, err := roadnet.LoadDIMACS(&gr, &co)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("roundtrip changed the graph")
	}
}

func TestFacadeDistanceMatrix(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 400, Seed: 5})
	sources := []roadnet.VertexID{0, 7, 100}
	targets := []roadnet.VertexID{3, 200, 399, 7}
	chIdx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := roadnet.NewIndex(roadnet.Dijkstra, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fast := roadnet.DistanceMatrix(chIdx, sources, targets)
	slow := roadnet.DistanceMatrix(baseline, sources, targets)
	for i := range sources {
		for j := range targets {
			if fast[i][j] != slow[i][j] {
				t.Errorf("matrix[%d][%d]: CH %d vs baseline %d", i, j, fast[i][j], slow[i][j])
			}
		}
	}
}

func TestFacadeNearestK(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 400, Seed: 6})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := roadnet.NewSpatialLocator(g).KNearest(context.Background(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("KNearest returned %d results", len(res))
	}
	for i, nb := range res {
		if want := idx.Distance(10, nb.V); want != nb.Dist {
			t.Errorf("result %d: dist %d, index says %d", i, nb.Dist, want)
		}
		if i > 0 && nb.Dist < res[i-1].Dist {
			t.Errorf("result %d: dist %d after %d", i, nb.Dist, res[i-1].Dist)
		}
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 7})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := roadnet.SaveIndex(idx, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := roadnet.LoadIndexFile(roadnet.CH, testutil.TempFile(t, "ch.idx", buf.Bytes()), g, false)
	if err != nil {
		t.Fatal(err)
	}
	s, tt := roadnet.VertexID(0), roadnet.VertexID(250)
	if loaded.Distance(s, tt) != idx.Distance(s, tt) {
		t.Error("loaded index disagrees with original")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 900, Seed: 4})
	qs, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Fatalf("want 10 Q sets, got %d", len(qs))
	}
	rs, err := roadnet.NetworkDistanceQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 10 {
		t.Fatalf("want 10 R sets, got %d", len(rs))
	}
}
