package tnr_test

import (
	"context"
	"errors"
	"testing"

	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// batchEndpoints splits sampled pairs into a source list and a target list,
// giving a matrix that mixes table-answerable and fallback pairs.
func batchEndpoints(g *graph.Graph, count int, seed int64) (sources, targets []graph.VertexID) {
	for _, p := range testutil.SamplePairs(g, count, seed) {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	return sources, targets
}

// checkBatchBitIdentical verifies the batch matrix against per-pair queries
// on a fresh searcher — the batch acceleration contract requires the values
// to be bit-identical.
func checkBatchBitIdentical(t *testing.T, ix *tnr.Index, sources, targets []graph.VertexID) {
	t.Helper()
	table0, fallback0 := ix.QueryCounts()
	table, err := ix.NewSearcher().BatchDistance(context.Background(), sources, targets)
	if err != nil {
		t.Fatalf("BatchDistance: %v", err)
	}
	table1, fallback1 := ix.QueryCounts()
	if len(table) != len(sources) {
		t.Fatalf("BatchDistance returned %d rows, want %d", len(table), len(sources))
	}
	perPair := ix.NewSearcher()
	for i, s := range sources {
		if len(table[i]) != len(targets) {
			t.Fatalf("row %d has %d entries, want %d", i, len(table[i]), len(targets))
		}
		for j, tgt := range targets {
			if want := perPair.Distance(s, tgt); table[i][j] != want {
				t.Errorf("batch dist(%d, %d) = %d, per-pair = %d", s, tgt, table[i][j], want)
			}
		}
	}
	// The acceleration must also account its queries like per-pair ones.
	table2, fallback2 := ix.QueryCounts()
	if table1-table0 != table2-table1 || fallback1-fallback0 != fallback2-fallback1 {
		t.Errorf("batch counted (table %d, fallback %d), per-pair (table %d, fallback %d)",
			table1-table0, fallback1-fallback0, table2-table1, fallback2-fallback1)
	}
}

func TestTNRBatchDistanceBitIdentical(t *testing.T) {
	g := testutil.SmallRoad(1600, 71)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	sources, targets := batchEndpoints(g, 12, 443)
	checkBatchBitIdentical(t, ix, sources, targets)
}

func TestTNRBatchDistanceHybrid(t *testing.T) {
	g := testutil.SmallRoad(1600, 71)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16, Hybrid: true})
	sources, targets := batchEndpoints(g, 12, 449)
	checkBatchBitIdentical(t, ix, sources, targets)
}

func TestTNRBatchDistanceDijkstraFallback(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16, Fallback: tnr.FallbackDijkstra})
	sources, targets := batchEndpoints(g, 10, 457)
	checkBatchBitIdentical(t, ix, sources, targets)
}

func TestTNRBatchDistanceDegenerateShapes(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	sources, targets := batchEndpoints(g, 6, 461)
	checkBatchBitIdentical(t, ix, sources[:1], targets)
	checkBatchBitIdentical(t, ix, sources, targets[:1])
	checkBatchBitIdentical(t, ix, nil, targets)
	checkBatchBitIdentical(t, ix, sources, nil)
	// Same vertex on both sides: diagonal of zeros.
	checkBatchBitIdentical(t, ix, sources, sources)
}

func TestTNRBatchDistanceCancelled(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	sources, targets := batchEndpoints(g, 8, 467)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	table, err := ix.NewSearcher().BatchDistance(ctx, sources, targets)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchDistance on cancelled context: err = %v, want context.Canceled", err)
	}
	if table != nil {
		t.Fatalf("BatchDistance on cancelled context returned a partial table")
	}
}

func TestTNRSearcherContextCancelled(t *testing.T) {
	g := testutil.SmallRoad(900, 73)
	for _, fb := range []tnr.Fallback{tnr.FallbackCH, tnr.FallbackDijkstra} {
		ix := buildTNR(t, g, tnr.Options{GridSize: 16, Fallback: fb})
		sr := ix.NewSearcher()
		ctx, cancelFn := context.WithCancel(context.Background())
		cancelFn()
		// A local pair exercises the fallback search, which must observe the
		// cancelled context before doing any work.
		s, tgt := localPair(ix, g)
		if _, err := sr.DistanceContext(ctx, s, tgt); !errors.Is(err, context.Canceled) {
			t.Errorf("fallback %v: DistanceContext err = %v, want context.Canceled", fb, err)
		}
		if _, _, err := sr.ShortestPathContext(ctx, s, tgt); !errors.Is(err, context.Canceled) {
			t.Errorf("fallback %v: ShortestPathContext err = %v, want context.Canceled", fb, err)
		}
		// The searcher remains valid for reuse after an abort.
		testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 20, 479), sr.Distance)
	}
}

// localPair finds a pair the tables cannot answer, forcing the fallback.
func localPair(ix *tnr.Index, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	for _, p := range testutil.SamplePairs(g, 256, 487) {
		if p[0] != p[1] && !ix.CanAnswerFromTables(p[0], p[1]) {
			return p[0], p[1]
		}
	}
	// Adjacent vertices always fail the locality filter.
	var s, t graph.VertexID
	g.Neighbors(0, func(v graph.VertexID, _ graph.Weight, _ int32) bool {
		s, t = 0, v
		return false
	})
	return s, t
}
