package exp

import (
	"context"
	"fmt"
	"io"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
)

// runSpatial reports the work of the spatial query tier in the paper's
// machine-independent unit, vertices settled per query:
//
//   - k-NN: the bounded Dijkstra that serves /v1/knn stops once k vertices
//     and the ties of the k-th distance are settled — the ball of the k-th
//     neighbor's distance, which is also what a range query at that
//     distance sweeps, so one count serves both.
//   - Range (within) with the R-tree Euclidean pre-filter, which turns the
//     sweep into a targets-mode search that stops once all geometric
//     candidates are proven.
//
// All counts are deterministic; dijkstra's TestKNearestSettledCount pins the
// first on KNearest itself on one fixture, this shows it across dataset
// sizes.
func runSpatial(l *lab, w io.Writer) error {
	const (
		numQueries = 64
		k          = 10
	)
	fmt.Fprintln(w, "Spatial tier: vertices settled by network k-NN and range queries")
	fmt.Fprintln(w, "(the nearest-neighbor workload of Appendix A, every vertex a candidate)")
	fmt.Fprintf(w, "(means over %d query vertices; k = %d; within radius = k-th neighbor distance,\n", numQueries, k)
	fmt.Fprintln(w, "Euclidean pre-filter radius = 2x that)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Dataset\tn\tknn / within settled\twith prefilter\tprune")
	for _, name := range l.datasets() {
		g, err := l.graph(name)
		if err != nil {
			return err
		}
		loc := core.NewSpatialLocator(g)
		dj := dijkstra.NewContext(g)

		n := g.NumVertices()
		var settledFull, settledPre int
		for q := 0; q < numQueries; q++ {
			s := graph.VertexID((q * 257) % n)
			res, err := loc.KNearest(context.Background(), s, k)
			if err != nil {
				return err
			}
			if len(res) == 0 {
				continue
			}
			// The ball of the k-th neighbor's network distance: the full
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
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1fx\n",
			name, n, mean(settledFull), mean(settledPre),
			mean(settledFull)/mean(settledPre))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected: a k-NN query settles the source, its k neighbors and the ties")
	fmt.Fprintln(w, "of the k-th distance — a count that does not grow with n, which is why no")
	fmt.Fprintln(w, "index is consulted: every vertex is an object, so the ball is the answer.")
	fmt.Fprintln(w, "The range query at that distance sweeps the same ball, hence one column;")
	fmt.Fprintln(w, "the Euclidean pre-filter stops it before the ball is swept.")
	return nil
}
