package silc_test

import (
	"context"
	"errors"
	"testing"

	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
)

func buildSILC(t *testing.T, g *graph.Graph) *silc.Index {
	t.Helper()
	ix, err := silc.Build(g, silc.Options{})
	if err != nil {
		t.Fatalf("silc.Build: %v", err)
	}
	return ix
}

// checkBatchBitIdentical verifies the batch matrix against per-pair
// Distance calls — the batch acceleration contract requires bit-identical
// values, including Infinity placement for unreachable pairs.
func checkBatchBitIdentical(t *testing.T, ix *silc.Index, sources, targets []graph.VertexID) {
	t.Helper()
	table, err := ix.BatchDistance(context.Background(), sources, targets)
	if err != nil {
		t.Fatalf("BatchDistance: %v", err)
	}
	if len(table) != len(sources) {
		t.Fatalf("BatchDistance returned %d rows, want %d", len(table), len(sources))
	}
	for i, s := range sources {
		if len(table[i]) != len(targets) {
			t.Fatalf("row %d has %d entries, want %d", i, len(table[i]), len(targets))
		}
		for j, tgt := range targets {
			if want := ix.Distance(s, tgt); table[i][j] != want {
				t.Errorf("batch dist(%d, %d) = %d, per-pair = %d", s, tgt, table[i][j], want)
			}
		}
	}
}

func TestSILCBatchDistanceBitIdentical(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	ix := buildSILC(t, g)
	var sources, targets []graph.VertexID
	for _, p := range testutil.SamplePairs(g, 12, 521) {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	checkBatchBitIdentical(t, ix, sources, targets)
	checkBatchBitIdentical(t, ix, sources[:1], targets)
	checkBatchBitIdentical(t, ix, sources, targets[:1])
	checkBatchBitIdentical(t, ix, nil, targets)
	checkBatchBitIdentical(t, ix, sources, nil)
	// Sources == targets exercises the zero diagonal and heavy prefix
	// sharing at once.
	checkBatchBitIdentical(t, ix, sources, sources)
}

// TestSILCBatchDistanceSharedPrefixes stresses the memo: all vertices of a
// small graph as sources against a handful of targets means nearly every
// walk resolves through a previously recorded suffix.
func TestSILCBatchDistanceSharedPrefixes(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	ix := buildSILC(t, g)
	sources := make([]graph.VertexID, g.NumVertices())
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	targets := []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2), graph.VertexID(g.NumVertices() - 1)}
	checkBatchBitIdentical(t, ix, sources, targets)
}

// TestSILCBatchDistanceDisconnected checks that unreachable suffixes are
// memoized correctly: a two-component graph yields whole blocks of
// Infinity in the matrix.
func TestSILCBatchDistanceDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(2, 3, 4)
	g := b.Build()
	ix := buildSILC(t, g)
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	checkBatchBitIdentical(t, ix, all, all)
}

func TestSILCBatchDistanceCancelled(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	ix := buildSILC(t, g)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	table, err := ix.BatchDistance(ctx, []graph.VertexID{0, 1}, []graph.VertexID{2, 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchDistance on cancelled context: err = %v, want context.Canceled", err)
	}
	if table != nil {
		t.Fatalf("BatchDistance on cancelled context returned a partial table")
	}
}

func TestSILCContextCancelled(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	ix := buildSILC(t, g)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := ix.DistanceContext(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("DistanceContext err = %v, want context.Canceled", err)
	}
	if _, _, err := ix.NewSearcher().OpenPath(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("OpenPath err = %v, want context.Canceled", err)
	}
}
