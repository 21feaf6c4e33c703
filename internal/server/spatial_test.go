package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

func postSpatial(t *testing.T, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s %s: status %d (%s), want %d", url, body, resp.StatusCode, e.Error, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
}

type knnResp struct {
	Source    int32
	K         int
	Neighbors []struct {
		Vertex   int32
		Distance int64
	}
}

// oracleServerKNN is the bounded-Dijkstra brute force the acceptance
// criterion compares /v1/knn answers against.
func oracleServerKNN(g *graph.Graph, s graph.VertexID, k int) []struct {
	V graph.VertexID
	D int64
} {
	c := dijkstra.NewContext(g)
	vs, err := c.KNearest(context.Background(), s, k)
	if err != nil {
		panic(err)
	}
	out := make([]struct {
		V graph.VertexID
		D int64
	}, len(vs))
	for i, v := range vs {
		out[i] = struct {
			V graph.VertexID
			D int64
		}{v, c.Dist(v)}
	}
	return out
}

// TestKNNEndpointBitIdenticalAcrossTechniques serves /v1/knn from every
// technique and requires answers bit-identical to the bounded-Dijkstra
// oracle on a randomized graph.
func TestKNNEndpointBitIdenticalAcrossTechniques(t *testing.T) {
	g := testutil.SmallRoad(250, 4411)
	configs := []struct {
		name string
		m    core.Method
		cfg  core.Config
	}{
		{"dijkstra", core.MethodDijkstra, core.Config{}},
		{"ch", core.MethodCH, core.Config{}},
		{"tnr", core.MethodTNR, core.Config{TNR: tnr.Options{GridSize: 8}}},
		{"silc", core.MethodSILC, core.Config{}},
		{"pcpd", core.MethodPCPD, core.Config{}},
		{"alt", core.MethodALT, core.Config{}},
		{"arcflags", core.MethodArcFlags, core.Config{}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := core.BuildIndex(tc.m, g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(g, idx).Handler())
			defer ts.Close()
			for _, src := range []graph.VertexID{0, 7, 100, 249} {
				for _, k := range []int{1, 5, 13} {
					var resp knnResp
					postSpatial(t, ts.URL+"/v1/knn",
						fmt.Sprintf(`{"source":%d,"k":%d}`, src, k), http.StatusOK, &resp)
					want := oracleServerKNN(g, src, k)
					if len(resp.Neighbors) != len(want) {
						t.Fatalf("knn(%d,%d): %d neighbors, oracle %d", src, k, len(resp.Neighbors), len(want))
					}
					for i, nb := range resp.Neighbors {
						if graph.VertexID(nb.Vertex) != want[i].V || nb.Distance != want[i].D {
							t.Fatalf("knn(%d,%d)[%d] = (%d,%d), oracle (%d,%d)",
								src, k, i, nb.Vertex, nb.Distance, want[i].V, want[i].D)
						}
					}
				}
			}
		})
	}
}

func newSpatialTestServer(t *testing.T, opts ...server.Option) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := testutil.SmallRoad(300, 4412)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

func TestKNNEndpointValidation(t *testing.T) {
	ts, _ := newSpatialTestServer(t, server.WithSpatialLimits(16, 0))
	for _, bad := range []string{
		`{"k":5}`,                         // no point
		`{"source":0}`,                    // no k
		`{"source":0,"k":0}`,              // k < 1
		`{"source":0,"k":17}`,             // k over the limit
		`{"source":99999,"k":3}`,          // out of range
		`{"source":0,"x":1,"y":2,"k":3}`,  // both id and coordinate
		`{"x":1,"k":3}`,                   // half a coordinate
		`{"source":0,"k":3,"extra":true}`, // unknown field
		`{"source":0,"k":3}{"source":1}`,  // trailing data
		`not json`,                        //
	} {
		postSpatial(t, ts.URL+"/v1/knn", bad, http.StatusBadRequest, nil)
	}

	// Coordinate form snaps and answers.
	var resp knnResp
	postSpatial(t, ts.URL+"/v1/knn", `{"x":50,"y":50,"k":3}`, http.StatusOK, &resp)
	if len(resp.Neighbors) != 3 {
		t.Fatalf("coordinate knn returned %d neighbors", len(resp.Neighbors))
	}
}

type withinResp struct {
	Source    int32
	Radius    int64
	Count     int
	Truncated bool
	Neighbors []struct {
		Vertex   int32
		Distance int64
	}
}

func TestWithinEndpoint(t *testing.T) {
	ts, g := newSpatialTestServer(t)
	c := dijkstra.NewContext(g)
	src := graph.VertexID(11)
	oracle := oracleServerKNN(g, src, 15)
	radius := oracle[len(oracle)-1].D

	c.Run([]graph.VertexID{src}, dijkstra.Options{})
	wantCount := 0
	for v := 0; v < g.NumVertices(); v++ {
		if vid := graph.VertexID(v); vid != src && c.Dist(vid) <= radius {
			wantCount++
		}
	}

	var resp withinResp
	postSpatial(t, ts.URL+"/v1/within",
		fmt.Sprintf(`{"source":%d,"radius":%d}`, src, radius), http.StatusOK, &resp)
	if resp.Count != wantCount || len(resp.Neighbors) != wantCount || resp.Truncated {
		t.Fatalf("within: count %d truncated %v, want %d", resp.Count, resp.Truncated, wantCount)
	}
	for i, nb := range resp.Neighbors {
		if d := c.Dist(graph.VertexID(nb.Vertex)); d != nb.Distance || d > radius {
			t.Fatalf("within[%d]: vertex %d distance %d (dijkstra %d)", i, nb.Vertex, nb.Distance, d)
		}
		if i > 0 {
			prev := resp.Neighbors[i-1]
			if nb.Distance < prev.Distance || (nb.Distance == prev.Distance && nb.Vertex <= prev.Vertex) {
				t.Fatalf("within order violated at %d", i)
			}
		}
	}

	// Limit truncates the closest-first prefix.
	postSpatial(t, ts.URL+"/v1/within",
		fmt.Sprintf(`{"source":%d,"radius":%d,"limit":3}`, src, radius), http.StatusOK, &resp)
	if resp.Count != 3 || !resp.Truncated {
		t.Fatalf("limited within: count %d truncated %v", resp.Count, resp.Truncated)
	}

	// Geometric pre-filter narrows the answer.
	postSpatial(t, ts.URL+"/v1/within",
		fmt.Sprintf(`{"source":%d,"radius":%d,"euclid_radius":1}`, src, radius), http.StatusOK, &resp)
	if resp.Count > wantCount {
		t.Fatalf("pre-filtered within returned %d > unfiltered %d", resp.Count, wantCount)
	}

	for _, bad := range []string{
		`{"source":11}`,             // no radius
		`{"source":11,"radius":0}`,  // radius < 1
		`{"source":11,"radius":-4}`, //
		`{"source":11,"radius":5,"euclid_radius":-1}`,
		`{"radius":5}`, // no point
	} {
		postSpatial(t, ts.URL+"/v1/within", bad, http.StatusBadRequest, nil)
	}
}

func TestRouteCoordinateEndpoints(t *testing.T) {
	ts, g := newSpatialTestServer(t)
	loc := core.NewSpatialLocator(g)
	fromP := g.Coord(3)
	toP := g.Coord(200)
	// Offset points snap back to distinct vertices.
	fx, fy := fromP.X+1, fromP.Y
	tx, ty := toP.X, toP.Y+1
	from := loc.NearestVertex(geom.Point{X: fx, Y: fy})
	to := loc.NearestVertex(geom.Point{X: tx, Y: ty})

	var viaCoord, viaID struct {
		From, To  int32
		Reachable bool
		Distance  int64
		Vertices  []int32
		Coords    [][2]int32
	}
	getJSON(t, fmt.Sprintf("%s/v1/route?from_x=%d&from_y=%d&to_x=%d&to_y=%d", ts.URL, fx, fy, tx, ty),
		http.StatusOK, &viaCoord)
	getJSON(t, fmt.Sprintf("%s/v1/route?from=%d&to=%d", ts.URL, from, to), http.StatusOK, &viaID)
	if viaCoord.From != int32(from) || viaCoord.To != int32(to) {
		t.Fatalf("coordinate route snapped to (%d,%d), locator says (%d,%d)",
			viaCoord.From, viaCoord.To, from, to)
	}
	if viaCoord.Distance != viaID.Distance || len(viaCoord.Vertices) != len(viaID.Vertices) {
		t.Fatalf("coordinate route differs from id route: %+v vs %+v", viaCoord, viaID)
	}
	if len(viaCoord.Coords) != len(viaCoord.Vertices) {
		t.Fatalf("route carries %d coords for %d vertices", len(viaCoord.Coords), len(viaCoord.Vertices))
	}
	for i, v := range viaCoord.Vertices {
		p := g.Coord(graph.VertexID(v))
		if viaCoord.Coords[i] != [2]int32{p.X, p.Y} {
			t.Fatalf("coords[%d] = %v, vertex %d is at %v", i, viaCoord.Coords[i], v, p)
		}
	}

	// Mixing id and coordinate for one endpoint is rejected.
	resp, err := http.Get(fmt.Sprintf("%s/v1/route?from=1&from_x=2&from_y=3&to=4", ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed endpoint form: status %d", resp.StatusCode)
	}
}

// TestRequestTimeout checks the per-request server-side deadline: a query
// slower than the timeout is answered 503.
func TestRequestTimeout(t *testing.T) {
	g := testutil.SmallRoad(2000, 4413)
	idx, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx, server.WithRequestTimeout(time.Nanosecond)).Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/distance?from=0&to=%d", ts.URL, g.NumVertices()-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
	}
	// A generous deadline leaves normal queries untouched.
	ts2 := httptest.NewServer(server.New(g, idx, server.WithRequestTimeout(time.Minute)).Handler())
	defer ts2.Close()
	var ok struct{ Reachable bool }
	getJSON(t, fmt.Sprintf("%s/v1/distance?from=0&to=1", ts2.URL), http.StatusOK, &ok)
}

// TestSpatialEndpointsConcurrent hammers knn/within/nearest concurrently;
// meaningful under -race.
func TestSpatialEndpointsConcurrent(t *testing.T) {
	g := testutil.SmallRoad(200, 4414)
	idx, err := core.BuildIndex(core.MethodSILC, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx).Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var knn knnResp
				postSpatial(t, ts.URL+"/v1/knn", fmt.Sprintf(`{"source":%d,"k":4}`, (w*31+i)%200),
					http.StatusOK, &knn)
				var within withinResp
				postSpatial(t, ts.URL+"/v1/within", fmt.Sprintf(`{"source":%d,"radius":80}`, i),
					http.StatusOK, &within)
				var near struct{ Vertex int32 }
				getJSON(t, fmt.Sprintf("%s/v1/nearest?x=%d&y=%d", ts.URL, i*3, w*5), http.StatusOK, &near)
			}
		}(w)
	}
	wg.Wait()
}

// TestServerWithMappedRTree serves spatial queries from an mmap-loaded
// R-tree locator, exercising the WithSpatialLocator path end to end.
func TestServerWithMappedRTree(t *testing.T) {
	g := testutil.SmallRoad(150, 4415)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := core.NewSpatialLocator(g)
	var buf bytes.Buffer
	if err := base.Tree().Save(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.LoadFile(testutil.TempFile(t, "verts.rt", buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	loc, err := core.NewSpatialLocatorFromTree(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx, server.WithSpatialLocator(loc)).Handler())
	defer ts.Close()
	var near struct {
		Vertex int32
		X, Y   int32
	}
	getJSON(t, ts.URL+"/v1/nearest?x=10&y=10", http.StatusOK, &near)
	if want := base.NearestVertex(geom.Point{X: 10, Y: 10}); graph.VertexID(near.Vertex) != want {
		t.Fatalf("mapped nearest = %d, want %d", near.Vertex, want)
	}
	var knn knnResp
	postSpatial(t, ts.URL+"/v1/knn", `{"x":10,"y":10,"k":3}`, http.StatusOK, &knn)
	if len(knn.Neighbors) != 3 {
		t.Fatalf("mapped knn returned %d neighbors", len(knn.Neighbors))
	}
}
