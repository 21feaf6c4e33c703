package silc_test

import (
	"context"
	"errors"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// buildCore builds a SILC index over g behind core's Index, the form
// core.Pool answers matrices for.
func buildCore(t *testing.T, g *graph.Graph) core.Index {
	t.Helper()
	ix, err := core.BuildIndex(core.MethodSILC, g, core.Config{})
	if err != nil {
		t.Fatalf("core.BuildIndex(silc): %v", err)
	}
	return ix
}

// checkBatchBitIdentical verifies a SILC distance matrix, answered by
// core.Pool's per-pair loop, against per-pair Distance calls: the values
// must be bit-identical, Infinity for unreachable pairs included.
func checkBatchBitIdentical(t *testing.T, ix core.Index, sources, targets []graph.VertexID) {
	t.Helper()
	table, err := core.NewPool(ix).BatchDistance(context.Background(), sources, targets)
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
	ix := buildCore(t, g)
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
	checkBatchBitIdentical(t, ix, sources, sources)
}

// TestSILCBatchDistanceDisconnected checks a two-component graph: the
// matrix holds whole blocks of Infinity.
func TestSILCBatchDistanceDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	g0 := testutil.Figure1()
	for i := 0; i < 4; i++ {
		b.AddVertex(g0.Coord(graph.VertexID(i)))
	}
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(2, 3, 4)
	g := b.Build()
	ix := buildCore(t, g)
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	checkBatchBitIdentical(t, ix, all, all)
	if d := ix.Distance(0, 2); d != graph.Infinity {
		t.Errorf("dist(0, 2) across components = %d, want Infinity", d)
	}
}

func TestSILCBatchDistanceCancelled(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	ix := buildCore(t, g)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	table, err := core.NewPool(ix).BatchDistance(ctx, []graph.VertexID{0, 1}, []graph.VertexID{2, 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchDistance on cancelled context: err = %v, want context.Canceled", err)
	}
	if table != nil {
		t.Fatalf("BatchDistance on cancelled context returned a partial table")
	}
}
