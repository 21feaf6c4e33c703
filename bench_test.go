// Per-operation benchmarks: the per-query cost of each technique on one
// mid-size network, the granularity of the paper's running-time figures,
// and the per-build cost of the preprocessing of Figure 6(b). The paper's
// tables themselves are counts, regenerated by cmd/spexp into
// EXPERIMENTS.md; the timed reproduction of its query figures, calibrated
// and checked against an oracle, is the bench/ module.
package roadnet_test

import (
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

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
		if _, err := tnr.Build(g, h, tnr.Options{GridSize: 16}); err != nil {
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
