package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

// batchRouteMethods covers every technique: the batch route oracle below
// demands path-identity with the sequential route endpoint for all of them.
var batchRouteMethods = []core.Method{
	core.MethodDijkstra, core.MethodCH, core.MethodTNR, core.MethodSILC,
	core.MethodPCPD, core.MethodALT, core.MethodArcFlags,
}

// newMethodServer builds a server over a small shared network for the given
// technique.
func newMethodServer(t *testing.T, method core.Method, opts ...server.Option) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := testutil.SmallRoad(400, 57)
	idx, err := core.BuildIndex(method, g, core.Config{})
	if err != nil {
		t.Fatalf("BuildIndex(%s): %v", method, err)
	}
	ts := httptest.NewServer(server.New(g, idx, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

type batchRouteResponse struct {
	Sources []graph.VertexID
	Targets []graph.VertexID
	Routes  [][]struct {
		Reachable bool
		Distance  int64
		Vertices  []graph.VertexID
	}
}

// TestBatchRoutePathIdenticalToSequential is the batch route oracle: for
// every technique, each cell of the batch matrix must be exactly the answer
// of a sequential GET /v1/route for that pair — same reachability, same
// distance, same vertex sequence.
func TestBatchRoutePathIdenticalToSequential(t *testing.T) {
	for _, method := range batchRouteMethods {
		t.Run(string(method), func(t *testing.T) {
			ts, g := newMethodServer(t, method)
			sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 4, 733))
			var batch batchRouteResponse
			postJSON(t, ts.URL+"/v1/batch/route", batchBody(sources, targets), http.StatusOK, &batch)
			if len(batch.Routes) != len(sources) {
				t.Fatalf("batch returned %d rows, want %d", len(batch.Routes), len(sources))
			}
			for i, src := range sources {
				if len(batch.Routes[i]) != len(targets) {
					t.Fatalf("row %d has %d entries, want %d", i, len(batch.Routes[i]), len(targets))
				}
				for j, tgt := range targets {
					var seq struct {
						Reachable bool
						Distance  int64
						Vertices  []graph.VertexID
					}
					getJSON(t, fmt.Sprintf("%s/v1/route?from=%d&to=%d", ts.URL, src, tgt), http.StatusOK, &seq)
					got := batch.Routes[i][j]
					if got.Reachable != seq.Reachable || got.Distance != seq.Distance {
						t.Errorf("route(%d, %d): batch (%v, %d) != sequential (%v, %d)",
							src, tgt, got.Reachable, got.Distance, seq.Reachable, seq.Distance)
						continue
					}
					if len(got.Vertices) != len(seq.Vertices) {
						t.Errorf("route(%d, %d): batch path %v != sequential %v", src, tgt, got.Vertices, seq.Vertices)
						continue
					}
					for k := range got.Vertices {
						if got.Vertices[k] != seq.Vertices[k] {
							t.Errorf("route(%d, %d): batch path %v != sequential %v", src, tgt, got.Vertices, seq.Vertices)
							break
						}
					}
				}
			}
		})
	}
}

// TestBatchDistanceAcceleratedEndpoints runs the batch distance endpoint
// against the TNR and SILC accelerators through the full HTTP stack,
// verifying the matrix against the Dijkstra oracle.
func TestBatchDistanceAcceleratedEndpoints(t *testing.T) {
	for _, method := range []core.Method{core.MethodTNR, core.MethodSILC} {
		t.Run(string(method), func(t *testing.T) {
			ts, g := newMethodServer(t, method)
			sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 6, 739))
			checkBatchAgainstOracle(t, ts.URL, g, sources, targets)
		})
	}
}

func TestBatchRouteBadRequests(t *testing.T) {
	ts, g := newTestServer(t)
	n := g.NumVertices()
	cases := []string{
		fmt.Sprintf(`{"sources":[0],"targets":[%d]}`, n), // target out of range
		`{"sources":[-1],"targets":[0]}`,                 // negative id
		`{"sources":[0],"targets":[0]`,                   // truncated JSON
		`{"sources":"zero","targets":[0]}`,               // wrong type
		`not json at all`,                                // not JSON
		`{"sources":[0],"targets":[0],"bogus":true}`,     // unknown field
	}
	for _, body := range cases {
		var resp struct{ Error string }
		postJSON(t, ts.URL+"/v1/batch/route", body, http.StatusBadRequest, &resp)
		if resp.Error == "" {
			t.Errorf("POST %s: missing error message", body)
		}
	}
}

// TestBatchLimits exercises the overflow guards on both batch endpoints
// with limits small enough to trip from a test: list length, pair-count
// product, and body size.
func TestBatchLimits(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx, server.WithBatchLimits(16, 16, 256)).Handler())
	defer ts.Close()

	long := make([]graph.VertexID, 17)
	wide := make([]graph.VertexID, 5) // 5 x 5 = 25 > 16 while both lists fit
	for _, endpoint := range []string{"/v1/batch/distance", "/v1/batch/route"} {
		var resp struct{ Error string }
		postJSON(t, ts.URL+endpoint, batchBody(long, nil), http.StatusBadRequest, &resp)
		if !strings.Contains(resp.Error, "exceeds") {
			t.Errorf("%s list-length overflow: error = %q", endpoint, resp.Error)
		}
		postJSON(t, ts.URL+endpoint, batchBody(nil, long), http.StatusBadRequest, &resp)
		if !strings.Contains(resp.Error, "exceeds") {
			t.Errorf("%s target-length overflow: error = %q", endpoint, resp.Error)
		}
		postJSON(t, ts.URL+endpoint, batchBody(wide, wide), http.StatusBadRequest, &resp)
		if !strings.Contains(resp.Error, "exceeds") {
			t.Errorf("%s pair-count overflow: error = %q", endpoint, resp.Error)
		}
		// A body over the 256-byte cap is a too-large request, not bad
		// JSON: it must answer 413 so clients know to shrink the batch.
		big := batchBody(make([]graph.VertexID, 12), make([]graph.VertexID, 1))
		if len(big) <= 256 {
			big = `{"sources":[` + strings.Repeat("0,", 200) + `0],"targets":[0]}`
		}
		postJSON(t, ts.URL+endpoint, big, http.StatusRequestEntityTooLarge, &resp)
		if resp.Error == "" {
			t.Errorf("%s oversized body: missing error", endpoint)
		}
	}
}

// TestBatchRoutePairCapLowerThanDistance checks that batch route enforces
// its own, tighter pair cap: a matrix the distance endpoint accepts (cells
// are one int64 each) is rejected by the route endpoint, whose cells carry
// whole paths.
func TestBatchRoutePairCapLowerThanDistance(t *testing.T) {
	ts, g := newMethodServer(t, core.MethodCH,
		server.WithBatchLimits(1024, 16, server.DefaultMaxBatchBody))
	ids := make([]graph.VertexID, 5) // 5 x 5 = 25: over 16, under 1024
	for i := range ids {
		ids[i] = graph.VertexID(i % g.NumVertices())
	}
	body := batchBody(ids, ids)
	var resp struct{ Error string }
	postJSON(t, ts.URL+"/v1/batch/distance", body, http.StatusOK, &struct{}{})
	postJSON(t, ts.URL+"/v1/batch/route", body, http.StatusBadRequest, &resp)
	if !strings.Contains(resp.Error, "exceeds the 16-pair limit") {
		t.Errorf("route pair-cap overflow: error = %q", resp.Error)
	}
}

// serveWithContext drives the handler directly with a cancellable request
// context, returning the recorded response.
func serveWithContext(ctx context.Context, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRequestContextCancelled checks that an already-cancelled request
// context aborts every query endpoint with 499 and an expired deadline
// with 503.
func TestRequestContextCancelled(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	idx, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(g, idx).Handler()

	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	far := fmt.Sprintf("from=0&to=%d", g.NumVertices()-1)
	batch := batchBody([]graph.VertexID{0, 1}, []graph.VertexID{2, 3})
	for _, c := range []struct {
		method, target, body string
	}{
		{http.MethodGet, "/v1/distance?" + far, ""},
		{http.MethodGet, "/v1/route?" + far, ""},
		{http.MethodPost, "/v1/batch/distance", batch},
		{http.MethodPost, "/v1/batch/route", batch},
	} {
		if rec := serveWithContext(cancelled, h, c.method, c.target, c.body); rec.Code != 499 {
			t.Errorf("%s %s on cancelled context: status %d, want 499", c.method, c.target, rec.Code)
		}
	}

	expired, cancelExpired := context.WithTimeout(context.Background(), -1)
	defer cancelExpired()
	if rec := serveWithContext(expired, h, http.MethodGet, "/v1/distance?"+far, ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("distance past deadline: status %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}
}

// TestBatchCancelledMidFlight cancels the request context while a large
// batch is being answered and checks the handler aborts with 499 instead
// of completing the matrix. Run under -race this also proves the abort
// path is race-clean.
func TestBatchCancelledMidFlight(t *testing.T) {
	g := testutil.SmallRoad(2000, 41)
	idx, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(g, idx).Handler()
	var sources, targets []graph.VertexID
	for _, p := range testutil.SamplePairs(g, 32, 743) {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	body := batchBody(sources, targets) // 1024 bidirectional-Dijkstra pairs

	ctx, cancelFn := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancelFn)
	defer timer.Stop()
	rec := serveWithContext(ctx, h, http.MethodPost, "/v1/batch/distance", body)
	if rec.Code != 499 {
		t.Fatalf("mid-flight cancellation: status %d, want 499 (batch completed before the cancel?)", rec.Code)
	}
	var resp struct{ Error string }
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || resp.Error == "" {
		t.Fatalf("mid-flight cancellation: bad error body (err %v, error %q)", err, resp.Error)
	}
}
