package exp

import (
	"fmt"
	"io"

	"roadnet/internal/core"
	"roadnet/internal/workload"
)

// measure times one method on one query set, rendering "-" when the method
// is unavailable on the dataset.
func measure(ix core.Index, qs workload.QuerySet, path bool) (float64, bool) {
	if ix == nil {
		return 0, false
	}
	if path {
		return core.MeasurePath(ix, qs).AvgMicros, true
	}
	return core.MeasureDistance(ix, qs).AvgMicros, true
}

// pickSpread selects up to k evenly spread names (the paper's four
// sub-figures use DE, CO, E-US and US).
func pickSpread(names []string, k int) []string {
	if len(names) <= k {
		return names
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, names[i*(len(names)-1)/(k-1)])
	}
	return out
}

// runFigure7 reproduces Figure 7: SILC vs PCPD on shortest-path queries
// over Q1..Q10 on the smallest datasets (the only ones where PCPD fits).
func runFigure7(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "Figure 7: SILC vs PCPD, shortest path queries, running time (microsec)")
	for _, name := range l.smallDatasets() {
		sets, err := l.linfSets(name)
		if err != nil {
			return err
		}
		silcIx, err := l.index(core.MethodSILC, name)
		if err != nil {
			return err
		}
		pcpdIx, err := l.index(core.MethodPCPD, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n(%s)\n", name)
		tw := newTable(w)
		fmt.Fprintln(tw, "Set\tSILC\tPCPD")
		for _, qs := range sets {
			s, sOK := measure(silcIx, qs, true)
			p, pOK := measure(pcpdIx, qs, true)
			fmt.Fprintf(tw, "%s\t%s\t%s\n", qs.Name, fmtMicros(s, sOK), fmtMicros(p, pOK))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// queryFigureVsN renders a Figure 8/10/16/17-style table: one sub-table per
// selected query bucket, methods as columns, datasets (growing n) as rows.
func queryFigureVsN(l *lab, w io.Writer, title string, useRSets, path bool) error {
	methods := []core.Method{core.MethodDijkstra, core.MethodCH, core.MethodTNR, core.MethodSILC}
	buckets := []int{0, 3, 6, 9} // Q1/R1, Q4/R4, Q7/R7, Q10/R10
	fmt.Fprintln(w, title)
	for _, b := range buckets {
		var setName string
		type rowData struct {
			name  string
			n     int
			cells []string
		}
		var rows []rowData
		for _, name := range l.datasets() {
			var sets []workload.QuerySet
			var err error
			if useRSets {
				sets, err = l.rSets(name)
			} else {
				sets, err = l.linfSets(name)
			}
			if err != nil {
				return err
			}
			if b >= len(sets) {
				continue
			}
			setName = sets[b].Name
			g, err := l.graph(name)
			if err != nil {
				return err
			}
			r := rowData{name: name, n: g.NumVertices()}
			for _, m := range methods {
				ix, err := l.index(m, name)
				if err != nil {
					return err
				}
				v, ok := measure(ix, sets[b], path)
				r.cells = append(r.cells, fmtMicros(v, ok))
			}
			rows = append(rows, r)
		}
		fmt.Fprintf(w, "\n(%s)\n", setName)
		tw := newTable(w)
		fmt.Fprintln(tw, "Dataset\tn\tDijkstra\tCH\tTNR\tSILC")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", r.name, r.n, r.cells[0], r.cells[1], r.cells[2], r.cells[3])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// queryFigureVsSet renders a Figure 9/11-style table: one sub-table per
// dataset, query sets as rows, methods as columns (no Dijkstra — the paper
// drops the baseline from these plots).
func queryFigureVsSet(l *lab, w io.Writer, title string, path bool) error {
	methods := []core.Method{core.MethodCH, core.MethodTNR, core.MethodSILC}
	fmt.Fprintln(w, title)
	for _, name := range pickSpread(l.datasets(), 4) {
		sets, err := l.linfSets(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n(%s)\n", name)
		tw := newTable(w)
		fmt.Fprintln(tw, "Set\tCH\tTNR\tSILC")
		for _, qs := range sets {
			fmt.Fprintf(tw, "%s", qs.Name)
			for _, m := range methods {
				ix, err := l.index(m, name)
				if err != nil {
					return err
				}
				v, ok := measure(ix, qs, path)
				fmt.Fprintf(tw, "\t%s", fmtMicros(v, ok))
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func runFigure8(l *lab, w io.Writer) error {
	return queryFigureVsN(l, w,
		"Figure 8: Efficiency of Distance Queries vs n, running time (microsec)", false, false)
}

func runFigure9(l *lab, w io.Writer) error {
	return queryFigureVsSet(l, w,
		"Figure 9: Efficiency of Distance Queries vs Query Sets, running time (microsec)", false)
}

func runFigure10(l *lab, w io.Writer) error {
	return queryFigureVsN(l, w,
		"Figure 10: Efficiency of Shortest Path Queries vs n, running time (microsec)", false, true)
}

func runFigure11(l *lab, w io.Writer) error {
	return queryFigureVsSet(l, w,
		"Figure 11: Efficiency of Shortest Path Queries vs Query Sets, running time (microsec)", true)
}

func runFigure16(l *lab, w io.Writer) error {
	return queryFigureVsN(l, w,
		"Figure 16: Efficiency of Distance Queries vs n on R sets, running time (microsec)", true, false)
}

func runFigure17(l *lab, w io.Writer) error {
	return queryFigureVsN(l, w,
		"Figure 17: Efficiency of Shortest Path Queries vs n on R sets, running time (microsec)", true, true)
}

// tnrVariantFigure renders Figures 14/15: one sub-table per dataset, query
// sets as rows, the TNR grid/fallback variants as columns.
func tnrVariantFigure(l *lab, w io.Writer, title string, path bool) error {
	variants := tnrVariants(l.cfg, false)
	fmt.Fprintln(w, title)
	for _, name := range pickSpread(l.datasets(), 4) {
		g, err := l.graph(name)
		if err != nil {
			return err
		}
		h, err := l.hierarchy(name)
		if err != nil {
			return err
		}
		sets, err := l.linfSets(name)
		if err != nil {
			return err
		}
		indexes := make([]core.Index, len(variants))
		for i, v := range variants {
			opts := v.opts
			opts.Hierarchy = h
			if indexes[i], err = core.BuildIndex(core.MethodTNR, g, core.Config{TNR: opts}); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "\n(%s)\n", name)
		tw := newTable(w)
		fmt.Fprint(tw, "Set")
		for _, v := range variants {
			fmt.Fprintf(tw, "\t%s", v.label)
		}
		fmt.Fprintln(tw)
		for _, qs := range sets {
			fmt.Fprintf(tw, "%s", qs.Name)
			for _, ix := range indexes {
				v, ok := measure(ix, qs, path)
				fmt.Fprintf(tw, "\t%s", fmtMicros(v, ok))
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func runFigure14(l *lab, w io.Writer) error {
	return tnrVariantFigure(l, w,
		"Figure 14: TNR variants, distance queries, running time (microsec)", false)
}

func runFigure15(l *lab, w io.Writer) error {
	return tnrVariantFigure(l, w,
		"Figure 15: TNR variants, shortest path queries, running time (microsec)", true)
}
