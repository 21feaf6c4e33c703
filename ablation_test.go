// Ablation benchmarks for the design choices the technique packages' docs
// call out:
//
//   - the CH contraction-order heuristic (edge difference + deleted
//     neighbors + depth vs single-term orderings),
//   - the CH witness-search budget (more shortcuts vs slower build),
//   - the TNR grid granularity (the Appendix E.1 trade-off at
//     per-configuration granularity),
//   - ALT landmark counts.
//
// Run with: go test -bench=Ablation -benchmem
package roadnet_test

import (
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"

	altpkg "roadnet/internal/alt"
	arcflagspkg "roadnet/internal/arcflags"
)

func ablationGraph() *graph.Graph {
	return gen.Generate(gen.Params{N: 9000, Seed: 104})
}

func ablationPairs(b *testing.B, g *graph.Graph) []workload.Pair {
	b.Helper()
	sets, err := workload.LInfSets(g, workload.Config{PairsPerSet: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return sets[len(sets)-1].Pairs // far pairs stress the hierarchy most
}

// benchCHOrdering builds a hierarchy with the given ordering weights and
// reports shortcut count and far-query time.
func benchCHOrdering(b *testing.B, opts ch.Options) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	h := testutil.Must(ch.Build(g, opts))
	b.ReportMetric(float64(h.NumShortcuts()), "shortcuts")
	s := h.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		s.Distance(p.S, p.T)
	}
}

func BenchmarkAblationCHOrderingFull(b *testing.B) {
	benchCHOrdering(b, ch.Options{}) // edge diff + deleted + depth
}

func BenchmarkAblationCHOrderingEdgeDiffOnly(b *testing.B) {
	benchCHOrdering(b, ch.Options{EdgeDiffWeight: 1})
}

func BenchmarkAblationCHOrderingDepthOnly(b *testing.B) {
	// Depth-only ordering approximates an arbitrary (input) order; the
	// paper notes an inferior ordering can be quadratically bad.
	benchCHOrdering(b, ch.Options{DepthWeight: 1})
}

func benchCHWitnessLimit(b *testing.B, limit int) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	h := testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: limit}))
	b.ReportMetric(float64(h.NumShortcuts()), "shortcuts")
	s := h.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		s.Distance(p.S, p.T)
	}
}

// Stall-on-demand ablation: same hierarchy, stalling on vs off.
func benchCHStalling(b *testing.B, disable bool) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	s := h.NewSearcher()
	s.DisableStalling = disable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		s.Distance(p.S, p.T)
	}
}

func BenchmarkAblationCHStallingOn(b *testing.B)  { benchCHStalling(b, false) }
func BenchmarkAblationCHStallingOff(b *testing.B) { benchCHStalling(b, true) }

func BenchmarkAblationCHWitness4(b *testing.B)    { benchCHWitnessLimit(b, 4) }
func BenchmarkAblationCHWitness120(b *testing.B)  { benchCHWitnessLimit(b, 120) }
func BenchmarkAblationCHWitness1000(b *testing.B) { benchCHWitnessLimit(b, 1000) }

func benchTNRGrid(b *testing.B, gridSize int, hybrid bool) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	ix, err := tnr.Build(g, h, tnr.Options{GridSize: gridSize, Hybrid: hybrid})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(ix.SizeBytes())/(1<<20), "MB")
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkAblationTNRGrid8(b *testing.B)    { benchTNRGrid(b, 8, false) }
func BenchmarkAblationTNRGrid16(b *testing.B)   { benchTNRGrid(b, 16, false) }
func BenchmarkAblationTNRGrid32(b *testing.B)   { benchTNRGrid(b, 32, false) }
func BenchmarkAblationTNRHybrid16(b *testing.B) { benchTNRGrid(b, 16, true) }

func benchALTLandmarks(b *testing.B, k int) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	ix := altpkg.Build(g, altpkg.Options{NumLandmarks: k})
	b.ReportMetric(float64(ix.SizeBytes())/(1<<20), "MB")
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkAblationALT4Landmarks(b *testing.B)  { benchALTLandmarks(b, 4) }
func BenchmarkAblationALT16Landmarks(b *testing.B) { benchALTLandmarks(b, 16) }
func BenchmarkAblationALT32Landmarks(b *testing.B) { benchALTLandmarks(b, 32) }

// BenchmarkAblationArcFlagsVsCH checks the paper's Appendix A claim that
// Arc Flags is inferior to CH in both space and query time.
func benchArcFlags(b *testing.B, gridSize int) {
	g := ablationGraph()
	pairs := ablationPairs(b, g)
	ix := arcflagspkg.Build(g, testutil.Must(ch.Build(g, ch.Options{})), arcflagspkg.Options{GridSize: gridSize})
	b.ReportMetric(float64(ix.SizeBytes())/(1<<20), "MB")
	sr := ix.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.Distance(p.S, p.T)
	}
}

func BenchmarkAblationArcFlagsGrid4(b *testing.B)  { benchArcFlags(b, 4) }
func BenchmarkAblationArcFlagsGrid8(b *testing.B)  { benchArcFlags(b, 8) }
func BenchmarkAblationArcFlagsGrid16(b *testing.B) { benchArcFlags(b, 16) }
