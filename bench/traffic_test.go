package main

import (
	"bytes"
	"testing"

	"roadnet"
)

func smokeTraffic(t *testing.T) *trafficSource {
	t.Helper()
	g, err := roadnet.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newTrafficSource(g, roadnet.NewSpatialLocator(g).Tree())
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTrafficDependsOnTheSeedAlone(t *testing.T) {
	ts := smokeTraffic(t)
	generators := map[string]func(seed int64, n int) []request{
		"distance": ts.distanceTraffic,
		"route":    ts.routeTraffic,
		"batch":    ts.batchTraffic,
	}
	for name, gen := range generators {
		a, b, c := requestListBytes(gen(7, 64)), requestListBytes(gen(7, 64)), requestListBytes(gen(8, 64))
		if len(a) == 0 {
			t.Errorf("%s: empty request list", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same request list", name)
		}
	}
}

func TestDistanceTrafficIsSkewedAndBucketed(t *testing.T) {
	ts := smokeTraffic(t)
	reqs := ts.distanceTraffic(3, 2000)
	origins := map[roadnet.VertexID]int{}
	near := 0
	split := ts.ladder[len(ts.ladder)/2].Lo
	for _, r := range reqs {
		origins[r.S]++
		if ts.g.Coord(r.S).LInf(ts.g.Coord(r.T)) < split {
			near++
		}
	}
	top := 0
	for _, n := range origins {
		if n > top {
			top = n
		}
	}
	// Uniform origins over ~1000 vertices would give the busiest one about
	// 8 of 2000 requests; zipf(1.1) gives it well over a tenth.
	if top < len(reqs)/20 {
		t.Errorf("busiest origin starts %d of %d requests; origins are not skewed", top, len(reqs))
	}
	// Destinations move to a wider bucket when an origin has no neighbour
	// in the drawn one, so the near share can fall short of 0.6, not exceed it by much.
	if share := float64(near) / float64(len(reqs)); share < 0.4 || share > 0.7 {
		t.Errorf("near share of destinations is %.2f, want about %.1f", share, nearShare)
	}
}

func TestBatchTrafficStaysInOneRegion(t *testing.T) {
	ts := smokeTraffic(t)
	extent := ts.g.Bounds().Width()
	for _, r := range ts.batchTraffic(5, 20) {
		if len(r.Sources) != batchSide || len(r.Targets) != batchSide {
			t.Fatalf("batch of %d x %d, want %d x %d", len(r.Sources), len(r.Targets), batchSide, batchSide)
		}
		all := append(append([]roadnet.VertexID(nil), r.Sources...), r.Targets...)
		seen := map[roadnet.VertexID]bool{}
		for _, v := range all {
			if seen[v] {
				t.Fatalf("vertex %d appears twice in one batch", v)
			}
			seen[v] = true
			if d := ts.g.Coord(all[0]).LInf(ts.g.Coord(v)); d > extent/2 {
				t.Fatalf("batch spans %d of an extent of %d: not one region", d, extent)
			}
		}
	}
}
