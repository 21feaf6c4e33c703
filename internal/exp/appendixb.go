package exp

import (
	"fmt"
	"io"
	"math/rand"

	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/tnr"
)

// runAppendixB demonstrates the defect of Bast et al.'s access-node
// computation (Appendix B): on a family of networks containing the
// Figure 12(b) pattern — a stub whose only exit edge jumps over the
// sampled outer-shell ring — the flawed method returns incorrect distances,
// while the corrected method stays exact.
func runAppendixB(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "## Appendix B: flawed vs corrected TNR access-node computation")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(queries with table-answered results compared against Dijkstra ground truth)")
	header(w, "Network", "queries", "flawed wrong", "corrected wrong")
	for trial := 0; trial < 3; trial++ {
		g, probes := appendixBNetwork(l.cfg.Seed + int64(trial))
		flawed, err := tnr.Build(g, tnr.Options{GridSize: 16, Access: tnr.AccessFlawedBast})
		if err != nil {
			return err
		}
		corrected, err := tnr.Build(g, tnr.Options{GridSize: 16, Access: tnr.AccessCorrected})
		if err != nil {
			return err
		}
		ctx := dijkstra.NewContext(g)
		flawedSr, correctedSr := flawed.NewSearcher(), corrected.NewSearcher()
		var flawedWrong, correctedWrong, queries int
		for _, p := range probes {
			if !corrected.CanAnswerFromTables(p[0], p[1]) {
				continue
			}
			queries++
			want := ctx.Distance(p[0], p[1])
			if flawedSr.Distance(p[0], p[1]) != want {
				flawedWrong++
			}
			if correctedSr.Distance(p[0], p[1]) != want {
				correctedWrong++
			}
		}
		row(w, fmt.Sprintf("counterexample-%d", trial+1), itoa(queries), itoa(flawedWrong), itoa(correctedWrong))
	}
	fmt.Fprintln(w, "\nThe flawed method misses access nodes reachable only through edges that")
	fmt.Fprintln(w, "jump the sampled ring (Figure 12(b)), so some far queries return wrong")
	fmt.Fprintln(w, "distances; the corrected computation (Section 3.3 Remarks) stays exact.")
	return nil
}

// appendixBNetwork builds a backbone network with several Figure 12(b)
// stubs attached, plus probe query pairs from the stub vertices to far
// vertices.
func appendixBNetwork(seed int64) (*graph.Graph, [][2]graph.VertexID) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(128)
	// A 16x4 backbone grid at the top of the map.
	cols, rows := 16, 4
	id := func(c, r int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddVertex(geom.Point{X: int32(50 + c*100), Y: int32(1250 + r*100)})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = b.AddEdge(id(c, r), id(c+1, r), graph.Weight(8+rng.Intn(5)))
			}
			if r+1 < rows {
				_ = b.AddEdge(id(c, r), id(c, r+1), graph.Weight(8+rng.Intn(5)))
			}
		}
	}
	// Stubs along the bottom: v1 in a bottom cell, v5 three cells right,
	// v6 seven cells right (its edge jumps the ring at Chebyshev 4).
	var probes [][2]graph.VertexID
	for k := 0; k < 3; k++ {
		baseX := int32(60 + k*300)
		v1 := b.AddVertex(geom.Point{X: baseX, Y: 60})
		v5 := b.AddVertex(geom.Point{X: baseX + 300, Y: 60})
		v6 := b.AddVertex(geom.Point{X: baseX + 700, Y: 60})
		_ = b.AddEdge(v1, v5, graph.Weight(4+rng.Intn(4)))
		_ = b.AddEdge(v5, v6, graph.Weight(4+rng.Intn(4)))
		probes = append(probes, [2]graph.VertexID{v1, v6}, [2]graph.VertexID{v6, v1})
	}
	return b.Build(), probes
}
