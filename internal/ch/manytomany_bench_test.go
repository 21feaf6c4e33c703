package ch

import (
	"fmt"
	"math/rand"
	"testing"

	"roadnet/internal/graph"
)

// benchCA returns the CA preset's hierarchy and count seeded random vertices
// of it.
func benchCA(b *testing.B, count int, seed int64) (*Hierarchy, []graph.VertexID) {
	b.Helper()
	h := buildCA(b)
	return h, randomVertices(rand.New(rand.NewSource(seed)), h.g.NumVertices(), count)
}

var benchSink int64

// BenchmarkManyToManySmall is a 16×16 batch of random CA vertices. They lie
// far apart, so a forward search rarely fills its row before the top of the
// hierarchy and the per-row stop seldom fires: this is the shape that
// bypasses it. Per-call set-up dominates unless it is pooled, and the table
// should be the only thing allocated.
func BenchmarkManyToManySmall(b *testing.B) {
	h, nodes := benchCA(b, 32, 1)
	sources, targets := nodes[:16], nodes[16:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.ManyToMany(sources, targets)[0][0]
	}
}

// BenchmarkManyToManyRegional is the shape of one POST /v1/batch/distance
// request of the serve_batch workload: 16×16 among the vertices of one
// region (regionalBatch), where forward searches fill their rows early and
// stop. It cycles through 64 such batches.
func BenchmarkManyToManyRegional(b *testing.B) {
	h := buildCA(b)
	rng := rand.New(rand.NewSource(1))
	batches := make([][2][]graph.VertexID, 64)
	for i := range batches {
		batches[i][0], batches[i][1] = regionalBatch(rng, h.g, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		benchSink += h.ManyToMany(batch[0], batch[1])[0][0]
	}
}

// BenchmarkManyToManyVsPerPair sets the bucket algorithm against the loop
// it displaces, one point-to-point query per pair on one searcher, on the
// same endpoints: random CA vertices at 16×16 and 64×64, and the regional
// 16×16 batches of BenchmarkManyToManyRegional. The ratio of each pair of
// sub-benchmarks is the factor core.Pool.BatchDistance quotes.
func BenchmarkManyToManyVsPerPair(b *testing.B) {
	h := buildCA(b)
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		name    string
		batches [][2][]graph.VertexID
	}
	var shapes []shape
	for _, side := range []int{16, 64} {
		nodes := randomVertices(rng, h.g.NumVertices(), 2*side)
		shapes = append(shapes, shape{fmt.Sprintf("random%dx%d", side, side), [][2][]graph.VertexID{{nodes[:side], nodes[side:]}}})
	}
	regional := shape{name: "regional16x16", batches: make([][2][]graph.VertexID, 64)}
	for i := range regional.batches {
		regional.batches[i][0], regional.batches[i][1] = regionalBatch(rng, h.g, 16)
	}
	shapes = append(shapes, regional)

	s := h.NewSearcher()
	for _, sh := range shapes {
		b.Run(sh.name+"/buckets", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := sh.batches[i%len(sh.batches)]
				h.ManyToManyEach(batch[0], batch[1], func(si, ti int, d int64) { benchSink += d })
			}
		})
		b.Run(sh.name+"/per-pair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := sh.batches[i%len(sh.batches)]
				for _, u := range batch[0] {
					for _, v := range batch[1] {
						benchSink += s.Distance(u, v)
					}
				}
			}
		})
	}
}

// BenchmarkManyToManyLarge is the shape of TNR's fillPairTable, ≈1500×1500
// access nodes: the forward searches spend their time scanning buckets, so
// this is the number that falls apart if a bucket stops being one
// contiguous run. Its endpoints span the graph, so the per-row stop
// seldom fires here either.
func BenchmarkManyToManyLarge(b *testing.B) {
	h, nodes := benchCA(b, 1500, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ManyToManyEach(nodes, nodes, func(si, ti int, d int64) { benchSink += d })
	}
}
