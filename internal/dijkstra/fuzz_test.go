package dijkstra_test

import (
	"testing"

	"roadnet/internal/alt"
	"roadnet/internal/arcflags"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// FuzzGraphSearchesAgree holds the three searches that run on pq.Ring —
// bidirectional Dijkstra, ALT and arc flags — to dijkstra.Context on a
// fuzzer-chosen messy graph and pair. Every weight is multiplied by a
// fuzzer-chosen scale in [1, 1<<24], so a heavy graph's arcs are far longer
// than a ring's 2^16 buckets and the overflow list is filled and moved into
// the buckets again and again. Each distance must be Context's, and each
// drained OpenPath a walk along edges from s to t whose weights add up to
// it. Arc flags is left out where the scaled graph has no hierarchy, whose
// shortcuts would not fit a stored weight.
func FuzzGraphSearchesAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, s, tgt uint16, scale uint32) {
		g := testutil.MessyGraph(seed)
		edges := g.EdgesByID()
		for i := range edges {
			edges[i].Weight *= graph.Weight(1 + scale%(1<<24))
		}
		g = testutil.Must(graph.FromEdges(g.Coords(), edges))
		pair := [][2]graph.VertexID{{graph.VertexID(int(s) % g.NumVertices()), graph.VertexID(int(tgt) % g.NumVertices())}}
		bi, landmarks := dijkstra.NewBidirectional(g), alt.Build(g).NewSearcher()
		testutil.CheckDistancesAgainstDijkstra(t, g, pair, bi.Distance)
		testutil.CheckPathsAgainstDijkstra(t, g, pair, bi.OpenPath)
		testutil.CheckDistancesAgainstDijkstra(t, g, pair, landmarks.Distance)
		testutil.CheckPathsAgainstDijkstra(t, g, pair, landmarks.OpenPath)
		if h, err := ch.Build(g, ch.Options{}); err == nil {
			flags := arcflags.Build(g, h).NewSearcher()
			testutil.CheckDistancesAgainstDijkstra(t, g, pair, flags.Distance)
			testutil.CheckPathsAgainstDijkstra(t, g, pair, flags.OpenPath)
		}
	})
}
