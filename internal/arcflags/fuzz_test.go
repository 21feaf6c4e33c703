package arcflags_test

import (
	"context"
	"testing"

	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// FuzzArcFlagsAgree asks one searcher a fuzzer-chosen run of queries on a
// fuzzer-chosen messy graph and holds every answer to bidirectional
// Dijkstra: the distance, the drained OpenPath (a walk along edges whose
// weights add up to it), and (nil, Infinity, nil) for an unreachable pair.
// Each pair of bytes of run names one query.
func FuzzArcFlagsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, run []byte) {
		g := testutil.MessyGraph(seed)
		sr, oracle, ctx := build(g).NewSearcher(), dijkstra.NewBidirectional(g), context.Background()
		n := g.NumVertices()
		for i := 0; i+1 < len(run); i += 2 {
			s, tgt := graph.VertexID(int(run[i])%n), graph.VertexID(int(run[i+1])%n)
			want := oracle.Distance(s, tgt)
			if d := sr.Distance(s, tgt); d != want {
				t.Fatalf("Distance(%d, %d) = %d, want %d", s, tgt, d, want)
			}
			it, d, err := sr.OpenPath(ctx, s, tgt)
			if err != nil || d != want || (it == nil) != (want >= graph.Infinity) {
				t.Fatalf("OpenPath(%d, %d) = iterator %v, %d, %v; want length %d", s, tgt, it != nil, d, err, want)
			}
			if it != nil {
				path, err := graph.AppendPath(nil, it)
				if err != nil {
					t.Fatalf("draining OpenPath(%d, %d): %v", s, tgt, err)
				}
				if path[0] != s || path[len(path)-1] != tgt || dijkstra.PathWeight(g, path) != want {
					t.Fatalf("OpenPath(%d, %d) = %v, not a walk of length %d between them", s, tgt, path, want)
				}
			}
		}
	})
}
