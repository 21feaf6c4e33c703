package core_test

// R-tree-seeded SILC distance browsing versus the linear scan that
// evaluates every vertex. Besides wall time, each benchmark reports
// "candidates/op" — the number of exact network-distance evaluations per
// query, precomputed over a fixed 64-source query set so the metric is fully
// deterministic (same value on any machine, any -benchtime).
// TestKNNPruneWorkCount gates the ratio linear/pruned, which measures
// pruning effectiveness independent of hardware.

import (
	"context"
	"sort"
	"sync"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
)

const (
	knnBenchVertices = 800
	knnBenchSources  = 64
	knnBenchK        = 10
)

var knnBench struct {
	once       sync.Once
	g          *graph.Graph
	sx         *silc.Index
	loc        *core.SpatialLocator
	sources    []graph.VertexID
	meanPruned float64
	meanLinear float64
}

func knnBenchSetup(testing.TB) {
	knnBench.once.Do(func() {
		g := testutil.SmallRoad(knnBenchVertices, 4242)
		ix, err := core.BuildIndex(core.MethodSILC, g, core.Config{
			SILC: silc.Options{EnableNearest: true},
		})
		if err != nil {
			panic(err)
		}
		knnBench.g = g
		knnBench.sx = core.SILCOf(ix)
		knnBench.loc = core.NewSpatialLocator(g)
		for i := 0; i < knnBenchSources; i++ {
			knnBench.sources = append(knnBench.sources,
				graph.VertexID((i*257)%g.NumVertices()))
		}
		// Deterministic per-query candidate counts over the fixed set.
		total := 0
		for _, s := range knnBench.sources {
			seeds := knnBench.loc.NearestVertices(g.Coord(s), knnBenchK+1)
			_, examined, err := knnBench.sx.NearestKPruned(context.Background(), s, knnBenchK, seeds)
			if err != nil {
				panic(err)
			}
			total += examined
		}
		knnBench.meanPruned = float64(total) / float64(knnBenchSources)
		knnBench.meanLinear = float64(g.NumVertices() - 1)
	})
}

// TestKNNPruneWorkCount holds R-tree-seeded pruning to evaluating at least
// four times fewer candidates per k-NN query than the evaluate-every-vertex
// scan (4.14 times, measured): exact counts over the fixed query set.
func TestKNNPruneWorkCount(t *testing.T) {
	knnBenchSetup(t)
	if ratio := knnBench.meanLinear / knnBench.meanPruned; ratio < 4 {
		t.Errorf("pruned k-NN examines %.1f candidates per query, the linear scan %.1f: ratio %.2f, want at least 4",
			knnBench.meanPruned, knnBench.meanLinear, ratio)
	}
}

// BenchmarkKNNPruned answers k-NN with SILC distance browsing seeded by
// R-tree geometric candidates.
func BenchmarkKNNPruned(b *testing.B) {
	knnBenchSetup(b)
	g, sx, loc := knnBench.g, knnBench.sx, knnBench.loc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := knnBench.sources[i%len(knnBench.sources)]
		seeds := loc.NearestVertices(g.Coord(s), knnBenchK+1)
		if _, _, err := sx.NearestKPruned(context.Background(), s, knnBenchK, seeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(knnBench.meanPruned, "candidates/op")
}

// BenchmarkKNNLinear answers the same queries by evaluating the exact
// network distance of every vertex — the no-spatial-index strawman.
func BenchmarkKNNLinear(b *testing.B) {
	knnBenchSetup(b)
	g, sx := knnBench.g, knnBench.sx
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := knnBench.sources[i%len(knnBench.sources)]
		best := make([]core.Neighbor, 0, knnBenchK+1)
		for v := 0; v < n; v++ {
			u := graph.VertexID(v)
			if u == s {
				continue
			}
			d := sx.Distance(s, u)
			if d >= graph.Infinity {
				continue
			}
			at := sort.Search(len(best), func(j int) bool {
				return best[j].Dist > d || (best[j].Dist == d && best[j].V >= u)
			})
			if at >= knnBenchK {
				continue
			}
			best = append(best, core.Neighbor{})
			copy(best[at+1:], best[at:])
			best[at] = core.Neighbor{V: u, Dist: d}
			if len(best) > knnBenchK {
				best = best[:knnBenchK]
			}
		}
	}
	b.ReportMetric(knnBench.meanLinear, "candidates/op")
}
