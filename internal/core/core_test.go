package core_test

import (
	"errors"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

func TestAllMethodsAgreeOnRoadNetwork(t *testing.T) {
	g := testutil.SmallRoad(400, 501)
	pairs := testutil.SamplePairs(g, 150, 111)
	methods := append(core.AllMethods(), core.MethodALT)
	for _, m := range methods {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		if ix.Method() != m {
			t.Errorf("Method() = %s, want %s", ix.Method(), m)
		}
		t.Run(string(m), func(t *testing.T) {
			testutil.CheckDistancesAgainstDijkstra(t, g, pairs, ix.Distance)
			testutil.CheckPathsAgainstDijkstra(t, g, pairs[:50], ix.NewSearcher().OpenPath)
		})
	}
}

func TestBuildIndexUnknownMethod(t *testing.T) {
	g := testutil.Figure1()
	if _, err := core.BuildIndex("nope", g, core.Config{}); err == nil {
		t.Error("unknown method should error")
	}
}

func TestMemoryCeiling(t *testing.T) {
	g := testutil.SmallRoad(400, 503)
	_, err := core.BuildIndex(core.MethodSILC, g, core.Config{MaxIndexBytes: 10})
	if !errors.Is(err, core.ErrIndexTooLarge) {
		t.Errorf("expected ErrIndexTooLarge, got %v", err)
	}
	// The baseline has no index and always fits.
	if _, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{MaxIndexBytes: 10}); err != nil {
		t.Errorf("baseline should fit any ceiling: %v", err)
	}
}

func TestStatsReporting(t *testing.T) {
	g := testutil.SmallRoad(400, 507)
	for _, m := range []core.Method{core.MethodCH, core.MethodSILC} {
		ix, err := core.BuildIndex(m, g, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		if st.Method != m || st.BuildTime <= 0 || st.IndexBytes <= 0 {
			t.Errorf("%s stats implausible: %+v", m, st)
		}
	}
	base, _ := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if st := base.Stats(); st.BuildTime != 0 || st.IndexBytes != 0 {
		t.Errorf("baseline stats should be zero: %+v", st)
	}
}

func TestHierarchySharing(t *testing.T) {
	g := testutil.SmallRoad(400, 509)
	chIx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := core.HierarchyOf(chIx)
	if h == nil {
		t.Fatal("HierarchyOf returned nil for a CH index")
	}
	tnrIx, err := core.BuildIndex(core.MethodTNR, g, core.Config{Hierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	if core.TNROf(tnrIx).Hierarchy() != h {
		t.Error("TNR did not reuse the shared hierarchy")
	}
	if core.HierarchyOf(tnrIx) != nil {
		t.Error("HierarchyOf on a non-CH index should be nil")
	}
}

// TestTNRHierarchyFollowsCHConfig: with no shared hierarchy, the one
// BuildIndex builds for TNR is configured by Config.CH, like MethodCH's.
func TestTNRHierarchyFollowsCHConfig(t *testing.T) {
	g := testutil.SmallRoad(900, 513)
	opts := ch.Options{WitnessSettleLimit: 2}
	want := testutil.Must(ch.Build(g, opts)).NumShortcuts()
	if def := testutil.Must(ch.Build(g, ch.Options{})).NumShortcuts(); def == want {
		t.Fatalf("settle limit 2 and the default both give %d shortcuts; the test needs them to differ", def)
	}
	ix, err := core.BuildIndex(core.MethodTNR, g, core.Config{CH: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.TNROf(ix).Hierarchy().NumShortcuts(); got != want {
		t.Errorf("TNR's hierarchy has %d shortcuts, ch.Build with Config.CH gives %d", got, want)
	}
	if st, inner := ix.Stats(), core.TNROf(ix); st.BuildTime <= inner.BuildTime() {
		t.Errorf("Stats().BuildTime %v does not include the hierarchy build (TNR alone %v)", st.BuildTime, inner.BuildTime())
	}
}

func TestDijkstraIndexUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.Build()
	ix, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 3); d != graph.Infinity {
		t.Errorf("cross-component distance = %d", d)
	}
}
