package core

import (
	"context"
	"sync/atomic"
	"testing"

	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// benchPool builds a CH index and pool over a mid-size network.
func benchPool(tb testing.TB) (*Pool, [][2]graph.VertexID) {
	tb.Helper()
	g := testutil.SmallRoad(2000, 41)
	idx, err := BuildIndex(MethodCH, g, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return NewPool(idx), testutil.SamplePairs(g, 256, 53)
}

// BenchmarkPoolDistanceCH is the steady-state hot path of the concurrent
// server: one pooled CH distance query. TestPoolDistanceAllocs holds it to
// 0 allocs/op once the pool is warm.
func BenchmarkPoolDistanceCH(b *testing.B) {
	pool, pairs := benchPool(b)
	pool.Put(pool.Get()) // warm the pool
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		pool.DistanceContext(ctx, p[0], p[1])
	}
}

// BenchmarkPoolDistanceCHParallel is the same hot path under contention,
// the shape the HTTP server produces. Also 0 allocs/op steady-state.
func BenchmarkPoolDistanceCHParallel(b *testing.B) {
	pool, pairs := benchPool(b)
	pool.Put(pool.Get())
	ctx := context.Background()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := pairs[int(next.Add(1))%len(pairs)]
			pool.DistanceContext(ctx, p[0], p[1])
		}
	})
}

// TestPoolDistanceAllocs pins the pooled CH distance query at zero
// allocations in steady state.
func TestPoolDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	pool, pairs := benchPool(t)
	pool.Put(pool.Get()) // warm the pool
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		pool.DistanceContext(ctx, p[0], p[1])
	})
	if allocs != 0 {
		t.Errorf("pooled CH Distance allocates %.0f times per query, want 0", allocs)
	}
}
