package exp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
)

// runSpatial quantifies how much geometric pruning buys the spatial query
// tier, in the units that matter for each query:
//
//   - k-NN: exact network-distance evaluations per query. SILC distance
//     browsing already prunes by quadtree regions; R-tree seeding tightens
//     its k-th-distance bound before browsing starts, so the comparison is
//     linear scan (every vertex) vs unseeded vs seeded browsing.
//   - Range (within): vertices settled by the bounded Dijkstra, with and
//     without the R-tree Euclidean pre-filter turning the sweep into a
//     targets-mode search that stops once all geometric candidates are
//     proven.
//
// Both counts are deterministic — the same pruning core's
// TestKNNPruneWorkCount gates in CI, measured across dataset sizes instead
// of one fixture.
func runSpatial(l *lab, w io.Writer) error {
	const (
		numQueries = 64
		k          = 10
	)
	fmt.Fprintln(w, "Spatial tier: geometric pruning of network k-NN and range queries")
	fmt.Fprintln(w, "(Appendix A notes SILC's suitability for NN queries; the R-tree adds the")
	fmt.Fprintln(w, "geometric candidate generation the comparison below quantifies)")
	fmt.Fprintf(w, "(means over %d query vertices; k = %d; within radius = k-th neighbor distance,\n", numQueries, k)
	fmt.Fprintln(w, "Euclidean pre-filter radius = 2x that; SILC-feasible datasets only)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Dataset\tn\tknn linear\tknn silc\tknn silc+rtree\tprune\twithin settled\twith prefilter\tprune")
	for _, name := range l.datasets() {
		if !l.applicable(core.MethodSILC, name) {
			continue
		}
		g, err := l.graph(name)
		if err != nil {
			return err
		}
		ix, err := core.BuildIndex(core.MethodSILC, g, core.Config{
			MaxIndexBytes: l.cfg.MaxIndexBytes,
			SILC:          silc.Options{EnableNearest: true},
		})
		if err != nil || ix == nil {
			if err != nil && !errors.Is(err, core.ErrIndexTooLarge) {
				return err
			}
			continue
		}
		sx := core.SILCOf(ix)
		loc := core.NewSpatialLocator(g)
		dj := dijkstra.NewContext(g)

		n := g.NumVertices()
		var seeded, unseeded, settledFull, settledPre int
		for q := 0; q < numQueries; q++ {
			s := graph.VertexID((q * 257) % n)
			seeds := loc.NearestVertices(g.Coord(s), k+1)
			res, ex, err := sx.NearestKPruned(context.Background(), s, k, seeds)
			if err != nil {
				return err
			}
			seeded += ex
			if _, ex, err = sx.NearestKPruned(context.Background(), s, k, nil); err != nil {
				return err
			}
			unseeded += ex
			if len(res) == 0 {
				continue
			}
			// Range query at the k-th neighbor's network distance: the full
			// bounded sweep vs the targets-mode search over the R-tree's
			// Euclidean candidates.
			radius := res[len(res)-1].Dist
			dj.Run([]graph.VertexID{s}, dijkstra.Options{MaxDist: radius})
			settledFull += len(dj.Settled())
			cands := loc.VerticesWithinRadius(g.Coord(s), 2*radius)
			dj.Run([]graph.VertexID{s}, dijkstra.Options{Targets: cands, MaxDist: radius})
			settledPre += len(dj.Settled())
		}
		mean := func(total int) float64 { return float64(total) / float64(numQueries) }
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.0f\t%.1fx\t%.0f\t%.0f\t%.1fx\n",
			name, n, n-1, mean(unseeded), mean(seeded),
			float64(n-1)/mean(seeded),
			mean(settledFull), mean(settledPre),
			mean(settledFull)/mean(settledPre))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected: the linear scan grows with n while browsing evaluates a small")
	fmt.Fprintln(w, "candidate set, so the prune factor stays large at every size. Seeding")
	fmt.Fprintln(w, "costs its k+1 seed evaluations up front — on these road-like datasets,")
	fmt.Fprintln(w, "where Euclidean order already matches network order, it lands near the")
	fmt.Fprintln(w, "unseeded count; its value is bounding the worst case when they diverge.")
	fmt.Fprintln(w, "The Euclidean pre-filter stops the range search before sweeping the ball.")
	return nil
}
