// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact; `spexp -list` prints the experiment index).
//
// Each iteration performs the complete experiment — dataset generation,
// preprocessing, and the timed query workload — on reduced dataset sizes so
// `go test -bench=.` finishes in minutes. cmd/spexp runs the same
// experiments at any scale (use -full -queries 10000 for the paper's
// workload).
package roadnet_test

import (
	"io"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/exp"
	"roadnet/internal/gen"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// benchConfig keeps every artifact benchmark at laptop scale: the three
// smallest Table 1 analogues and 100 queries per set.
func benchConfig() exp.Config {
	return exp.Config{
		Datasets:      []string{"DE", "NH", "ME"},
		QueriesPerSet: 100,
		Seed:          1,
		TNRGridSize:   16,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchConfig(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)               { runExperiment(b, "t1") }
func BenchmarkTable2DeltaRedundancy(b *testing.B)        { runExperiment(b, "t2") }
func BenchmarkFigure6SpaceAndPreprocessing(b *testing.B) { runExperiment(b, "f6") }
func BenchmarkFigure7SilcVsPcpd(b *testing.B)            { runExperiment(b, "f7") }
func BenchmarkFigure8DistanceVsN(b *testing.B)           { runExperiment(b, "f8") }
func BenchmarkFigure9DistanceVsQuerySet(b *testing.B)    { runExperiment(b, "f9") }
func BenchmarkFigure10PathVsN(b *testing.B)              { runExperiment(b, "f10") }
func BenchmarkFigure11PathVsQuerySet(b *testing.B)       { runExperiment(b, "f11") }
func BenchmarkAppendixBFlawedTNR(b *testing.B)           { runExperiment(b, "b") }
func BenchmarkFigure13TnrGridSpace(b *testing.B)         { runExperiment(b, "f13") }
func BenchmarkFigure14TnrVariantsDistance(b *testing.B)  { runExperiment(b, "f14") }
func BenchmarkFigure15TnrVariantsPath(b *testing.B)      { runExperiment(b, "f15") }
func BenchmarkFigure16DistanceVsNRSets(b *testing.B)     { runExperiment(b, "f16") }
func BenchmarkFigure17PathVsNRSets(b *testing.B)         { runExperiment(b, "f17") }

// --- per-operation micro-benchmarks ---
//
// The artifact benchmarks above time whole experiments; the benchmarks
// below report per-query costs of each technique on one mid-size network,
// which is the granularity the paper's running-time figures use.

type benchEnv struct {
	pairsNear, pairsFar []workload.Pair
	indexes             map[core.Method]core.Index
}

var sharedEnv *benchEnv

func env(b *testing.B) *benchEnv {
	b.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	g := gen.Generate(gen.Params{N: 9000, Seed: 104})
	sets, err := workload.LInfSets(g, workload.Config{PairsPerSet: 200, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	hierarchy := testutil.Must(ch.Build(g, ch.Options{}))
	e := &benchEnv{
		pairsNear: sets[1].Pairs,
		pairsFar:  sets[len(sets)-1].Pairs,
		indexes:   map[core.Method]core.Index{},
	}
	for _, m := range append(core.AllMethods(), core.MethodALT) {
		ix, err := core.BuildIndex(m, g, core.Config{
			Hierarchy: hierarchy,
			TNR:       tnr.Options{GridSize: 16},
		})
		if err != nil {
			b.Fatal(err)
		}
		e.indexes[m] = ix
	}
	sharedEnv = e
	return e
}

func benchQueries(b *testing.B, m core.Method, far, path bool) {
	e := env(b)
	ix := e.indexes[m]
	pairs := e.pairsNear
	if far {
		pairs = e.pairsFar
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if path {
			ix.ShortestPath(p.S, p.T)
		} else {
			ix.Distance(p.S, p.T)
		}
	}
}

func BenchmarkDistanceNearDijkstra(b *testing.B) { benchQueries(b, core.MethodDijkstra, false, false) }
func BenchmarkDistanceNearCH(b *testing.B)       { benchQueries(b, core.MethodCH, false, false) }
func BenchmarkDistanceNearTNR(b *testing.B)      { benchQueries(b, core.MethodTNR, false, false) }
func BenchmarkDistanceNearSILC(b *testing.B)     { benchQueries(b, core.MethodSILC, false, false) }
func BenchmarkDistanceNearPCPD(b *testing.B)     { benchQueries(b, core.MethodPCPD, false, false) }
func BenchmarkDistanceNearALT(b *testing.B)      { benchQueries(b, core.MethodALT, false, false) }

func BenchmarkDistanceFarDijkstra(b *testing.B) { benchQueries(b, core.MethodDijkstra, true, false) }
func BenchmarkDistanceFarCH(b *testing.B)       { benchQueries(b, core.MethodCH, true, false) }
func BenchmarkDistanceFarTNR(b *testing.B)      { benchQueries(b, core.MethodTNR, true, false) }
func BenchmarkDistanceFarSILC(b *testing.B)     { benchQueries(b, core.MethodSILC, true, false) }
func BenchmarkDistanceFarPCPD(b *testing.B)     { benchQueries(b, core.MethodPCPD, true, false) }
func BenchmarkDistanceFarALT(b *testing.B)      { benchQueries(b, core.MethodALT, true, false) }

func BenchmarkPathFarDijkstra(b *testing.B) { benchQueries(b, core.MethodDijkstra, true, true) }
func BenchmarkPathFarCH(b *testing.B)       { benchQueries(b, core.MethodCH, true, true) }
func BenchmarkPathFarTNR(b *testing.B)      { benchQueries(b, core.MethodTNR, true, true) }
func BenchmarkPathFarSILC(b *testing.B)     { benchQueries(b, core.MethodSILC, true, true) }
func BenchmarkPathFarPCPD(b *testing.B)     { benchQueries(b, core.MethodPCPD, true, true) }

// --- preprocessing benchmarks (Figure 6(b) at per-build granularity) ---

func BenchmarkBuildCH(b *testing.B) {
	g := gen.Generate(gen.Params{N: 9000, Seed: 104})
	b.ReportAllocs()
	b.ResetTimer()
	var h *ch.Hierarchy
	for i := 0; i < b.N; i++ {
		h = testutil.Must(ch.Build(g, ch.Options{}))
	}
	b.ReportMetric(float64(h.NumShortcuts()), "shortcuts")
}

func BenchmarkBuildTNR(b *testing.B) {
	g := gen.Generate(gen.Params{N: 9000, Seed: 104})
	h := testutil.Must(ch.Build(g, ch.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tnr.Build(g, tnr.Options{GridSize: 16, Hierarchy: h}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSILC(b *testing.B) {
	g := gen.Generate(gen.Params{N: 2400, Seed: 102})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildIndex(core.MethodSILC, g, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPCPD(b *testing.B) {
	g := gen.Generate(gen.Params{N: 2400, Seed: 102})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildIndex(core.MethodPCPD, g, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
