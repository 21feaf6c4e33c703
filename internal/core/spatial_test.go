package core_test

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// oracleKNN is the ground truth for network k-NN, sharing no stop rule with
// the bounded search: a full Dijkstra sweep from s, every reached vertex
// ranked by (distance, id), the first k kept.
func oracleKNN(g *graph.Graph, s graph.VertexID, k int) []core.Neighbor {
	c := dijkstra.NewContext(g)
	c.Run([]graph.VertexID{s}, dijkstra.Options{})
	var out []core.Neighbor
	for _, v := range c.Settled() {
		if v != s {
			out = append(out, core.Neighbor{V: v, Dist: c.Dist(v)})
		}
	}
	sortNeighbors(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sortNeighbors orders nbs by (distance, id), the order of every answer.
func sortNeighbors(nbs []core.Neighbor) {
	sort.Slice(nbs, func(i, j int) bool {
		if nbs[i].Dist != nbs[j].Dist {
			return nbs[i].Dist < nbs[j].Dist
		}
		return nbs[i].V < nbs[j].V
	})
}

// TestKNearestBitIdenticalAcrossTechniques checks the acceptance
// criterion: /v1/knn's engine answers bit-identically to the full-sweep
// oracle on randomized graphs, and every technique's own Distance to each
// neighbor is the distance the answer reports.
func TestKNearestBitIdenticalAcrossTechniques(t *testing.T) {
	g := testutil.SmallRoad(300, 8801)
	loc := core.NewSpatialLocator(g)
	rng := rand.New(rand.NewSource(42))

	methods := append(core.AllMethods(), core.MethodALT, core.MethodArcFlags)
	indexes := make(map[core.Method]core.Index)
	for _, m := range methods {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		indexes[m] = ix
	}

	for trial := 0; trial < 25; trial++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		k := rng.Intn(12) + 1
		got, err := loc.KNearest(context.Background(), s, k)
		if err != nil {
			t.Fatalf("KNearest(%d, %d): %v", s, k, err)
		}
		checkNeighbors(t, "knn", got, oracleKNN(g, s, k))
		for m, ix := range indexes {
			for _, nb := range got {
				if d := ix.Distance(s, nb.V); d != nb.Dist {
					t.Fatalf("%s: Distance(%d, %d) = %d, KNearest reports %d", m, s, nb.V, d, nb.Dist)
				}
			}
		}
	}

	// k past the vertex count clamps.
	got, err := loc.KNearest(context.Background(), 0, g.NumVertices()+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > g.NumVertices()-1 {
		t.Fatalf("unclamped k returned %d neighbors", len(got))
	}
}

func TestWithinMatchesOracle(t *testing.T) {
	g := testutil.SmallRoad(300, 8802)
	loc := core.NewSpatialLocator(g)
	rng := rand.New(rand.NewSource(7))
	c := dijkstra.NewContext(g)

	for trial := 0; trial < 20; trial++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		// A radius around the median neighbor distance so answers are
		// non-trivial but bounded.
		oracle10 := oracleKNN(g, s, 10)
		if len(oracle10) == 0 {
			continue
		}
		radius := oracle10[len(oracle10)-1].Dist + int64(rng.Intn(5))

		c.Run([]graph.VertexID{s}, dijkstra.Options{})
		var want []core.Neighbor
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if vid == s {
				continue
			}
			if d := c.Dist(vid); d <= radius {
				want = append(want, core.Neighbor{V: vid, Dist: d})
			}
		}
		sortNeighbors(want)

		got, truncated, err := loc.Within(context.Background(), s, radius, core.WithinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if truncated {
			t.Fatal("uncapped Within reported truncation")
		}
		checkNeighbors(t, "within", got, want)

		// Geometric pre-filter: answer must be the intersection with the
		// Euclidean ball, computed here by linear scan.
		euclid := int64(rng.Intn(40) + 1)
		sq := euclid * euclid
		var wantGeo []core.Neighbor
		for _, nb := range want {
			if rtree.DistSq(g.Coord(s), g.Coord(nb.V)) <= sq {
				wantGeo = append(wantGeo, nb)
			}
		}
		gotGeo, _, err := loc.Within(context.Background(), s, radius,
			core.WithinOptions{EuclidRadius: euclid})
		if err != nil {
			t.Fatal(err)
		}
		checkNeighbors(t, "within+prefilter", gotGeo, wantGeo)

		// A Euclidean radius whose square overflows int64 (from
		// ceil(sqrt(MaxInt64)) up) covers the map: it filters nothing.
		for _, huge := range []int64{3037000500, 4e9, 1 << 40} {
			gotAll, _, err := loc.Within(context.Background(), s, radius,
				core.WithinOptions{EuclidRadius: huge})
			if err != nil {
				t.Fatal(err)
			}
			checkNeighbors(t, "within+huge prefilter", gotAll, want)
		}

		// MaxResults truncates the sorted prefix.
		if len(want) > 3 {
			capped, trunc, err := loc.Within(context.Background(), s, radius,
				core.WithinOptions{MaxResults: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !trunc {
				t.Fatal("capped Within did not report truncation")
			}
			checkNeighbors(t, "within+cap", capped, want[:3])
		}
	}

	// Non-positive radius answers empty.
	if got, _, err := loc.Within(context.Background(), 0, 0, core.WithinOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("radius 0: got %v, %v", got, err)
	}
}

func checkNeighbors(t *testing.T, what string, got, want []core.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestNearestVertexMatchesScan(t *testing.T) {
	g := testutil.SmallRoad(200, 8803)
	loc := core.NewSpatialLocator(g)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := geom.Point{X: rng.Int31n(2000) - 1000, Y: rng.Int31n(2000) - 1000}
		best := graph.VertexID(-1)
		bestD := int64(1) << 62
		for v := 0; v < g.NumVertices(); v++ {
			if d := rtree.DistSq(p, g.Coord(graph.VertexID(v))); d < bestD {
				best, bestD = graph.VertexID(v), d
			}
		}
		if got := loc.NearestVertex(p); got != best {
			t.Fatalf("NearestVertex(%+v) = %d (distSq %d), scan found %d (distSq %d)",
				p, got, rtree.DistSq(p, g.Coord(got)), best, bestD)
		}
	}
}

func TestSpatialCancellation(t *testing.T) {
	g := testutil.SmallRoad(300, 8804)
	loc := core.NewSpatialLocator(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.KNearest(ctx, 0, 5); err == nil {
		t.Error("KNearest on cancelled context succeeded")
	}
	if _, _, err := loc.Within(ctx, 0, 1<<40, core.WithinOptions{}); err == nil {
		t.Error("Within on cancelled context succeeded")
	}
}

// TestSpatialConcurrent hammers one locator from many goroutines; run
// under -race this checks the read-only concurrency contract.
func TestSpatialConcurrent(t *testing.T) {
	g := testutil.SmallRoad(200, 8805)
	loc := core.NewSpatialLocator(g)
	want := oracleKNN(g, 7, 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := loc.KNearest(context.Background(), 7, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("worker %d: neighbor %d = %+v, want %+v", w, j, got[j], want[j])
						return
					}
				}
				loc.NearestVertex(geom.Point{X: int32(i), Y: int32(w)})
				if _, _, err := loc.Within(context.Background(), graph.VertexID(i), 100,
					core.WithinOptions{EuclidRadius: 50}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSpatialLocatorFromTree(t *testing.T) {
	g := testutil.SmallRoad(100, 8806)
	base := core.NewSpatialLocator(g)
	loc, err := core.NewSpatialLocatorFromTree(g, base.Tree())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loc.NearestVertex(geom.Point{X: 5, Y: 5}), base.NearestVertex(geom.Point{X: 5, Y: 5}); got != want {
		t.Fatalf("FromTree NearestVertex = %d, want %d", got, want)
	}
	small := rtree.BulkLoad([]rtree.Entry{{ID: 0}})
	if _, err := core.NewSpatialLocatorFromTree(g, small); err == nil {
		t.Error("mismatched tree accepted")
	}
}
