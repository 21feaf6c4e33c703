// Ablation benchmarks for the design choices that stay settable:
//
//   - the CH witness-search budget (more shortcuts vs slower build),
//   - the TNR grid granularity (the Appendix E.1 trade-off at
//     per-configuration granularity).
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
