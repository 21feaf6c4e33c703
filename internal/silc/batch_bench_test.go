package silc_test

// The comparison BatchDistance is kept for: the shared-suffix walk against
// the per-pair loop core.Pool.BatchDistance would otherwise run, on the same
// index and the same matrices. Run both with
//
//	go test -run '^$' -bench 'SILC(BatchDistance|PerPair)' -count 5 ./internal/silc/

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
)

var batchBench struct {
	once sync.Once
	ix   *silc.Index
	n    int
}

func benchmarkSILCMatrix(b *testing.B, matrix func(ix *silc.Index, sources, targets []graph.VertexID)) {
	batchBench.once.Do(func() {
		g, err := gen.GeneratePreset("NH")
		if err != nil {
			panic(err)
		}
		if batchBench.ix, err = silc.Build(g, testutil.Must(ch.Build(g, ch.Options{}))); err != nil {
			panic(err)
		}
		batchBench.n = g.NumVertices()
	})
	// sources×targets of seeded random NH vertices
	for _, shape := range [][2]int{{16, 16}, {64, 1}, {64, 64}} {
		rng := rand.New(rand.NewSource(7))
		endpoints := func(k int) []graph.VertexID {
			out := make([]graph.VertexID, k)
			for i := range out {
				out[i] = graph.VertexID(rng.Intn(batchBench.n))
			}
			return out
		}
		sources, targets := endpoints(shape[0]), endpoints(shape[1])
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matrix(batchBench.ix, sources, targets)
			}
		})
	}
}

func BenchmarkSILCBatchDistance(b *testing.B) {
	benchmarkSILCMatrix(b, func(ix *silc.Index, sources, targets []graph.VertexID) {
		if _, err := ix.BatchDistance(context.Background(), sources, targets); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkSILCPerPair(b *testing.B) {
	ctx := context.Background()
	benchmarkSILCMatrix(b, func(ix *silc.Index, sources, targets []graph.VertexID) {
		for _, s := range sources {
			row := make([]int64, len(targets))
			for j, t := range targets {
				d, err := ix.DistanceContext(ctx, s, t)
				if err != nil {
					b.Fatal(err)
				}
				row[j] = d
			}
		}
	})
}
