package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
)

// runTable1 reproduces Table 1: the dataset roster. It prints the paper's
// sizes next to the scaled synthetic analogues actually generated.
func runTable1(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "## Table 1: Dataset Characteristics (paper datasets vs scaled synthetic analogues)")
	header(w, "Name", "Region", "Paper n", "Paper m", "Our n", "Our m (arcs)")
	ds, err := l.datasets(false)
	for _, d := range ds {
		p, _ := gen.PresetByName(d.name)
		row(w, p.Name, p.Region, itoa(p.PaperVertices), itoa(p.PaperEdges), itoa(d.g.NumVertices()), itoa(d.g.NumArcs()))
	}
	return err
}

// runTable2 reproduces Table 2: the minimum observed ratio
// length(P')/length(P) between a shortest path P and the shortest
// core-disjoint path P' (an upper bound of the PCPD redundancy parameter
// delta, Appendix C). Ratios at or near 1 explain PCPD's blow-up.
func runTable2(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "## Table 2: Upper bound of delta (min length(P')/length(P)) per dataset")
	header(w, "Dataset", "min ratio", "sampled pairs", "pairs with core-disjoint path")
	ds, err := l.datasets(false)
	for _, d := range ds {
		ratio, pairs, found := minCoreDisjointRatio(d.g, l.cfg.Seed, l.cfg.QueriesPerSet/10+20)
		row(w, d.name, num("%.5f", ratio), itoa(pairs), itoa(found))
	}
	return err
}

// minCoreDisjointRatio samples random pairs, computes the shortest path P
// and the shortest core-disjoint path P' (no interior vertex of P), and
// returns the minimum observed length ratio, NaN when no P' was found.
func minCoreDisjointRatio(g *graph.Graph, seed int64, samples int) (minRatio float64, pairs, found int) {
	rng := rand.New(rand.NewSource(seed + 17))
	ctx := dijkstra.NewContext(g)
	n := g.NumVertices()
	minRatio = math.NaN()
	for i := 0; i < samples; i++ {
		s := graph.VertexID(rng.Intn(n))
		t := graph.VertexID(rng.Intn(n))
		if s == t {
			continue
		}
		path, d := ctx.ShortestPath(s, t)
		if d >= graph.Infinity || len(path) < 3 {
			continue // need at least one interior vertex to remove
		}
		pairs++
		dd := coreDisjointDistance(g, path, s, t)
		if dd >= graph.Infinity {
			continue
		}
		if ratio := float64(dd) / float64(d); found == 0 || ratio < minRatio {
			minRatio = ratio
		}
		found++
	}
	return minRatio, pairs, found
}

// coreDisjointDistance computes the shortest s-t distance avoiding the
// interior vertices of path, by rebuilding the induced subgraph. Rebuilding
// is O(n + m) per pair, acceptable for the sampled Table 2 sizes.
func coreDisjointDistance(g *graph.Graph, path []graph.VertexID, s, t graph.VertexID) int64 {
	banned := make(map[graph.VertexID]bool, len(path))
	for _, v := range path[1 : len(path)-1] {
		banned[v] = true
	}
	b := graph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Coord(graph.VertexID(v)))
	}
	for _, e := range g.Edges() {
		if !banned[e.U] && !banned[e.V] {
			// Ids are preserved, so AddEdge cannot fail.
			_ = b.AddEdge(e.U, e.V, e.Weight)
		}
	}
	sub := b.Build()
	return dijkstra.NewContext(sub).Distance(s, t)
}
