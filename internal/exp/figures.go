package exp

import (
	"context"
	"fmt"
	"io"
	"math"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// bytesOf is an index's size, NaN when ix is nil.
func bytesOf(ix core.Index) float64 {
	if ix == nil {
		return math.NaN()
	}
	return float64(ix.Stats().IndexBytes)
}

// mean returns the mean of count over pairs on one searcher of ix, NaN
// when ix is nil.
func mean(ix core.Index, pairs []workload.Pair, count func(core.Searcher, workload.Pair) int64) float64 {
	if ix == nil {
		return math.NaN()
	}
	sr := ix.NewSearcher()
	var total int64
	for _, p := range pairs {
		total += count(sr, p)
	}
	return ratio(total, int64(len(pairs)))
}

// settled answers p's distance query on bidirectional Dijkstra, CH, ALT or
// arc flags and counts the vertices it settled.
func settled(sr core.Searcher, p workload.Pair) int64 {
	if bi, ok := sr.(*dijkstra.Bidirectional); ok {
		return int64(bi.Query(p.S, p.T).Settled)
	}
	sr.Distance(p.S, p.T)
	return int64(sr.(interface{ SettledLast() int }).SettledLast())
}

// hops answers p's path query and counts its hops, 0 when the target is
// unreachable. SILC makes one interval lookup per hop (§3.4).
func hops(sr core.Searcher, p workload.Pair) int64 {
	it, _, err := sr.OpenPath(context.Background(), p.S, p.T)
	if err != nil || it == nil {
		return 0
	}
	path, _ := graph.AppendPath(nil, it)
	return int64(max(len(path)-1, 0))
}

// tnrWork is what a TNR index's tables did on some queries: how many they
// answered, and the pair-table cells the distance queries and paths read.
type tnrWork struct {
	queries, tables, distCells, pathCells int64
}

// countTNR runs the distance queries of pairs, and then their path queries
// if paths is set, on a TNR index (a zero tnrWork when ix is nil). The
// table share is the QueryCounts delta of the distance queries. Only the
// paths the tables answer are drained, since a fallback path reads no cells.
func countTNR(ix core.Index, pairs []workload.Pair, paths bool) tnrWork {
	tix := core.TNROf(ix)
	if tix == nil {
		return tnrWork{}
	}
	sr := tix.NewSearcher()
	w := tnrWork{queries: int64(len(pairs))}
	before, _ := tix.QueryCounts()
	for _, p := range pairs {
		sr.Distance(p.S, p.T)
		w.distCells += int64(sr.LookupsLast())
	}
	after, _ := tix.QueryCounts()
	w.tables = after - before
	for _, p := range pairs {
		if paths && tix.CanAnswerFromTables(p.S, p.T) {
			hops(sr, p)
			w.pathCells += int64(sr.LookupsLast())
		}
	}
	return w
}

// cells are the table share, and the cells per table-answered distance
// query and path.
func (a tnrWork) cells() []string {
	return []string{num("%.2f", ratio(a.tables, a.queries)), num("%.1f", ratio(a.distCells, a.tables)), num("%.1f", ratio(a.pathCells, a.tables))}
}

// allPairs returns what the preprocessing of the all-pairs techniques
// produced: SILC's Morton intervals, PCPD's tree nodes and path-coherent
// pairs, NaN each for a missing index.
func allPairs(silcIx, pcpdIx core.Index) (intervals, nodes, pairs float64) {
	intervals, nodes, pairs = math.NaN(), math.NaN(), math.NaN()
	if silcIx != nil {
		intervals = float64(silcIx.NewSearcher().(*silc.Searcher).NumIntervals())
	}
	if pcpdIx != nil {
		p := pcpdIx.NewSearcher().(*pcpd.Searcher)
		nodes, pairs = float64(p.NumNodes()), float64(p.NumPairs())
	}
	return intervals, nodes, pairs
}

// runFigure6 reproduces Figure 6: index space (a) and, in place of
// preprocessing time (b), what each preprocessing produced.
func runFigure6(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "## Figure 6: Space Consumption (bytes) and Preprocessing Output vs n")
	header(w, "Dataset", "n", "CH bytes", "TNR bytes", "SILC bytes", "PCPD bytes",
		"CH shortcuts", "TNR access nodes/cell", "SILC intervals", "PCPD tree nodes", "PCPD pairs")
	ds, err := l.datasets(true)
	holds := true
	for _, d := range ds {
		ix, err := l.index(d, core.MethodCH, core.MethodTNR, core.MethodSILC, core.MethodPCPD)
		if err != nil {
			return err
		}
		b := []float64{bytesOf(ix[0]), bytesOf(ix[1]), bytesOf(ix[2]), bytesOf(ix[3])}
		access := math.NaN()
		if t := core.TNROf(ix[1]); t != nil {
			access = t.MeanAccessNodesPerCell()
		}
		intervals, nodes, pairs := allPairs(ix[2], ix[3])
		row(w, d.name, itoa(d.g.NumVertices()), num("%.0f", b[0]), num("%.0f", b[1]), num("%.0f", b[2]), num("%.0f", b[3]),
			itoa(d.h.NumShortcuts()), num("%.1f", access), num("%.0f", intervals), num("%.0f", nodes), num("%.0f", pairs))
		// A comparison with a missing (NaN) index is false: it breaks no
		// ordering.
		holds = holds && !(b[1] <= b[0]) && !(b[2] <= b[0]) && !(b[3] <= max(b[1], b[2]))
	}
	verdict(w, holds, "CH has the smallest index on every dataset and PCPD the largest wherever it fits.")
	return err
}

// runFigure7 reproduces Figure 7, SILC against PCPD on shortest path
// queries, on the datasets where PCPD is attempted.
func runFigure7(l *lab, w io.Writer) error {
	fmt.Fprint(w, "## Figure 7: SILC vs PCPD, shortest path queries\n\n",
		"SILC's hops per path on each Q set (one interval lookup per hop) next to both indexes' static counts. ",
		"PCPD has no per-query work counter yet, so its per-query columns are left out until it has one.\n")
	header(w, "Dataset", "SILC intervals", "PCPD tree nodes", "PCPD pairs",
		"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10")
	ds, err := l.datasets(true)
	holds := true
	for _, d := range ds {
		if !applicable(core.MethodPCPD, d.name) {
			continue
		}
		ix, err := l.index(d, core.MethodSILC, core.MethodPCPD)
		if err != nil {
			return err
		}
		intervals, nodes, pairs := allPairs(ix[0], ix[1])
		cells := []string{d.name, num("%.0f", intervals), num("%.0f", nodes), num("%.0f", pairs)}
		for _, qs := range d.q {
			cells = append(cells, num("%.1f", mean(ix[0], qs.Pairs, hops)))
		}
		row(w, cells...)
		holds = holds && !(bytesOf(ix[1]) <= bytesOf(ix[0])) && !(nodes <= intervals)
	}
	verdict(w, holds, "PCPD's index is larger than SILC's and its tree has more nodes than SILC has intervals on every dataset, the space side of the paper's SILC-over-PCPD ordering.")
	return err
}

// runQueries reproduces Figures 8-11, 16 and 17, slicings of one (dataset ×
// query set × technique) cube, as one table per dataset.
func runQueries(l *lab, w io.Writer) error {
	fmt.Fprint(w, "## Figures 8-11, 16 and 17: distance and shortest path queries per query set\n\n",
		"Means per query. Figures 8 and 16 read the distance columns across datasets (Q and R sets), Figure 9 reads them down the Q rows; ",
		"Figures 10, 11 and 17 read the path columns the same ways. Dijkstra is bidirectional. ",
		"A CH path settles what its distance query settles, then unpacks shortcuts, which no count reports yet. ",
		"TNR's cells are pair-table cells per query its tables answer. ",
		"TNR reads pruned per-vertex access sets, a stated departure from the paper's per-cell Equation 1: ",
		"a vertex drops each access node that another access node of its cell dominates (d(v, a') + T[a'][a] = d(v, a)), ",
		"which changes no answer; over whole cells an NH Q10 distance query read 340.5 cells.\n")
	ds, err := l.datasets(true)
	distOK, localOK, pathOK := true, true, true
	for _, d := range ds {
		ix, err := l.index(d, core.MethodDijkstra, core.MethodCH, core.MethodTNR, core.MethodSILC)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n### %s\n", d.name)
		header(w, "Set", "Dijkstra settled", "CH settled", "TNR table share", "TNR cells/distance", "TNR cells/path", "SILC hops")
		var near tnrWork
		var nearHops float64
		for i, qs := range append(d.q[:len(d.q):len(d.q)], d.r...) {
			dij, chs := mean(ix[0], qs.Pairs, settled), mean(ix[1], qs.Pairs, settled)
			tw, hop := countTNR(ix[2], qs.Pairs, true), mean(ix[3], qs.Pairs, hops)
			row(w, append(append([]string{qs.Name, num("%.1f", dij), num("%.1f", chs)}, tw.cells()...), num("%.1f", hop))...)
			// The orderings are read on Q1 and R1 against Q10 and R10; a
			// missing technique (NaN, no TNR queries) breaks none.
			switch i % 10 {
			case 0:
				near, nearHops = tw, hop
			case 9:
				distOK = distOK && !(chs >= dij)
				localOK = localOK && near.tables == 0 && tw.tables == tw.queries
				pathOK = pathOK && (tw.tables == 0 || tw.pathCells > tw.distCells) && !(hop <= nearHops)
			}
		}
	}
	verdict(w, distOK, "Figures 8 and 16: CH settles fewer vertices than Dijkstra on Q10 and R10 of every dataset, the paper's Dijkstra-slowest ordering on far queries.")
	verdict(w, localOK, "Figure 9: TNR answers all of Q1 and R1 through its CH fallback and all of Q10 and R10 from its tables, so it is CH on near sets and leaves it on far ones.")
	verdict(w, pathOK, "Figures 10, 11 and 17: on Q10 and R10 a TNR path reads more table cells than a TNR distance query, and SILC walks more hops there than on Q1 and R1.")
	return err
}

// runTNRVariants reproduces Figures 13-15, the grid variants of Appendix
// E.1, as one table per dataset.
func runTNRVariants(l *lab, w io.Writer) error {
	g := l.cfg.TNRGridSize
	variants := []struct {
		label string
		opts  tnr.Options
	}{
		{fmt.Sprintf("%dx%d", g, g), tnr.Options{GridSize: g}},
		{fmt.Sprintf("%dx%d", 2*g, 2*g), tnr.Options{GridSize: 2 * g}},
		{"Hybrid", tnr.Options{GridSize: g, Hybrid: true}},
	}
	fmt.Fprint(w, "## Figures 13-15: TNR grid variants\n\n",
		"Each variant falls back to CH. Q columns are the share of the set its tables answer; ",
		"the cell columns are pair-table cells per Q10 distance query and per Q10 path the tables answer. ",
		"A Dijkstra fallback reads the same tables and changes only who answers the rest: ",
		"the Dijkstra column of Figures 8-11 instead of the CH one, with the hierarchy's bytes left out.\n")
	ds, err := l.datasets(true)
	holds := true
	for _, d := range ds {
		fmt.Fprintf(w, "\n### %s\n", d.name)
		cols := []string{"Variant", "bytes", "access nodes/cell"}
		for _, qs := range d.q {
			cols = append(cols, qs.Name)
		}
		header(w, append(cols, "Q10 cells/distance", "Q10 cells/path")...)
		var size [3]float64
		var tables [3][]int64
		for i, v := range variants {
			ix, err := l.build(d, indexKey{d.name, core.MethodTNR, v.opts})
			if err != nil {
				return err
			}
			size[i] = bytesOf(ix)
			cells := []string{v.label, num("%.0f", size[i]), "-"}
			if t := core.TNROf(ix); t != nil {
				cells[2] = num("%.1f", t.MeanAccessNodesPerCell())
			}
			var far tnrWork
			for j, qs := range d.q {
				far = countTNR(ix, qs.Pairs, j == len(d.q)-1)
				tables[i] = append(tables[i], far.tables)
				cells = append(cells, far.cells()[0])
			}
			row(w, append(cells, far.cells()[1:]...)...)
		}
		holds = holds && size[1] > size[0] && size[2] > size[0]
		for j := range tables[0] {
			holds = holds && tables[2][j] >= tables[0][j]
		}
	}
	verdict(w, holds, "the fine grid and the hybrid need more bytes than the coarse grid, and the hybrid answers at least the coarse grid's share of every set from its tables.")
	return err
}

// runExtensions checks the paper's Appendix A statement that the surveyed
// related-work techniques — ALT and Arc Flags among them — "are previously
// shown to be inferior to CH in terms of both space overhead and query
// performance", with 16 landmarks and an 8x8 grid.
func runExtensions(l *lab, w io.Writer) error {
	fmt.Fprint(w, "## Appendix A extensions: ALT and Arc Flags vs CH\n\n",
		"Index bytes, and vertices settled per distance query of the far set (the highest Q bucket).\n")
	header(w, "Dataset", "n", "CH bytes", "ALT(16) bytes", "ArcFlags(8x8) bytes",
		"CH settled", "ALT(16) settled", "ArcFlags(8x8) settled")
	ds, err := l.datasets(true)
	holds := true
	for _, d := range ds {
		ix, err := l.index(d, core.MethodCH, core.MethodALT, core.MethodArcFlags)
		if err != nil {
			return err
		}
		var size, work [3]float64
		for i := range ix {
			size[i], work[i] = bytesOf(ix[i]), mean(ix[i], d.q[len(d.q)-1].Pairs, settled)
		}
		row(w, d.name, itoa(d.g.NumVertices()), num("%.0f", size[0]), num("%.0f", size[1]), num("%.0f", size[2]),
			num("%.1f", work[0]), num("%.1f", work[1]), num("%.1f", work[2]))
		holds = holds && work[0] < min(work[1], work[2]) && size[0] < min(size[1], size[2])
	}
	verdict(w, holds, "CH settles fewer vertices and needs fewer bytes than ALT and Arc Flags on every dataset, the Appendix A claim that both are inferior to CH.")
	return err
}
