package exp

import (
	"fmt"
	"io"
	"time"

	"roadnet/internal/alt"
	"roadnet/internal/arcflags"
	"roadnet/internal/workload"
)

// runExtensions checks the paper's Appendix A statement that the surveyed
// related-work techniques — ALT and Arc Flags among them — "are previously
// shown to be inferior to CH in terms of both space overhead and query
// performance". It builds the two extensions next to CH on each dataset and
// reports space, preprocessing and far-distance-query time side by side.
func runExtensions(l *lab, w io.Writer) error {
	fmt.Fprintln(w, "Appendix A extensions: ALT and Arc Flags vs CH")
	fmt.Fprintln(w, "(space MB / preprocessing sec / far-query microsec; far set = highest Q bucket)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Dataset\tn\tCH\tALT(16)\tArcFlags(8x8)")
	for _, name := range l.datasets() {
		g, err := l.graph(name)
		if err != nil {
			return err
		}
		sets, err := l.linfSets(name)
		if err != nil {
			return err
		}
		far := sets[len(sets)-1]

		h, err := l.hierarchy(name)
		if err != nil {
			return err
		}
		chSearch := h.NewSearcher()
		chTime := timePairs(far.Pairs, func(s, t int32) { chSearch.Distance(s, t) })

		altIx := alt.Build(g, alt.Options{NumLandmarks: 16})
		altSearch := altIx.NewSearcher()
		altTime := timePairs(far.Pairs, func(s, t int32) { altSearch.Distance(s, t) })

		afIx, err := arcflags.Build(g, arcflags.Options{GridSize: 8})
		if err != nil {
			return err
		}
		afSearch := afIx.NewSearcher()
		afTime := timePairs(far.Pairs, func(s, t int32) { afSearch.Distance(s, t) })

		fmt.Fprintf(tw, "%s\t%d\t%s / %.2f / %s\t%s / %.2f / %s\t%s / %.2f / %s\n",
			name, g.NumVertices(),
			fmtMB(h.SizeBytes()), h.BuildTime().Seconds(), fmtMicros(chTime, true),
			fmtMB(altIx.SizeBytes()), altIx.BuildTime().Seconds(), fmtMicros(altTime, true),
			fmtMB(afIx.SizeBytes()), afIx.BuildTime().Seconds(), fmtMicros(afTime, true))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected: ALT trails CH at every size; Arc Flags keeps a Dijkstra-like")
	fmt.Fprintln(w, "query profile, so CH pulls ahead as n grows — the Appendix A claim that")
	fmt.Fprintln(w, "both are dominated at road-network scale.")
	return nil
}

func timePairs(pairs []workload.Pair, f func(s, t int32)) float64 {
	start := time.Now()
	for _, p := range pairs {
		f(p.S, p.T)
	}
	elapsed := time.Since(start)
	if len(pairs) == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(len(pairs))
}
