package ch_test

import (
	"math/rand"
	"sync"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

var (
	caOnce      sync.Once
	caHierarchy *ch.Hierarchy
)

// benchCA builds the CA preset's hierarchy once per test binary and draws
// count seeded vertices of it.
func benchCA(b *testing.B, count int, seed int64) (*ch.Hierarchy, []graph.VertexID) {
	b.Helper()
	caOnce.Do(func() {
		g, err := gen.GeneratePreset("CA")
		if err != nil {
			b.Fatal(err)
		}
		caHierarchy = testutil.Must(ch.Build(g, ch.Options{}))
	})
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]graph.VertexID, count)
	for i := range nodes {
		nodes[i] = graph.VertexID(rng.Intn(caHierarchy.Graph().NumVertices()))
	}
	return caHierarchy, nodes
}

var benchSink int64

// BenchmarkManyToManySmall is the shape of one POST /v1/batch/distance
// request, 16×16: per-call set-up dominates unless it is pooled, and the
// table should be the only thing allocated.
func BenchmarkManyToManySmall(b *testing.B) {
	h, nodes := benchCA(b, 32, 1)
	sources, targets := nodes[:16], nodes[16:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.ManyToMany(sources, targets)[0][0]
	}
}

// BenchmarkManyToManyLarge is the shape of TNR's fillPairTable, ≈1500×1500
// access nodes: the forward searches spend their time scanning buckets, so
// this is the number that falls apart if a bucket stops being one
// contiguous run.
func BenchmarkManyToManyLarge(b *testing.B) {
	h, nodes := benchCA(b, 1500, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ManyToManyEach(nodes, nodes, func(si, ti int, d int64) { benchSink += d })
	}
}
