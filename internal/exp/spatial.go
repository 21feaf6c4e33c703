package exp

import (
	"context"
	"fmt"
	"io"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
)

// runSpatial reports the vertices settled by the spatial query tier: the
// bounded Dijkstra that serves /v1/knn, which settles the ball of the k-th
// neighbor's distance (what a range query at that distance sweeps too), and
// the range query with the R-tree's Euclidean pre-filter, a targets-mode
// search that stops once all geometric candidates are proven.
func runSpatial(l *lab, w io.Writer) error {
	const (
		numQueries = 64
		k          = 10
	)
	fmt.Fprintln(w, "## Spatial tier: vertices settled by network k-NN and range queries")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(the nearest-neighbor workload of Appendix A, every vertex a candidate)")
	fmt.Fprintf(w, "(means over %d query vertices; k = %d; within radius = k-th neighbor distance,\n", numQueries, k)
	fmt.Fprintln(w, "Euclidean pre-filter radius = 2x that)")
	header(w, "Dataset", "n", "knn / within settled", "with prefilter", "prune")
	ds, err := l.datasets(false)
	for _, d := range ds {
		g := d.g
		loc, dj, n := core.NewSpatialLocator(g), dijkstra.NewContext(g), g.NumVertices()
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
		row(w, d.name, itoa(n), fmt.Sprintf("%.1f", mean(settledFull)), fmt.Sprintf("%.1f", mean(settledPre)),
			fmt.Sprintf("%.1fx", mean(settledFull)/mean(settledPre)))
	}
	fmt.Fprintln(w, "\nExpected: a k-NN query settles the source, its k neighbors and the ties")
	fmt.Fprintln(w, "of the k-th distance — a count that does not grow with n, which is why no")
	fmt.Fprintln(w, "index is consulted: every vertex is an object, so the ball is the answer.")
	fmt.Fprintln(w, "The range query at that distance sweeps the same ball, hence one column;")
	fmt.Fprintln(w, "the Euclidean pre-filter stops it before the ball is swept.")
	return err
}
