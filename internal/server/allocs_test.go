package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/metrics"
	"roadnet/internal/server"
)

// TestRequestAllocs is the count gate on the HTTP layer: heap allocations
// of one in-process request through Handler() — DE + CH, the request value
// reused, the response discarded — so what is counted is the request path
// itself (query-string scan, body decoding, validation, pool checkout,
// search, the append writer). Every endpoint is pinned, one 400 answer
// with it. The pins are measured, not aspirational: a change that adds an
// allocation per request fails here and says which endpoint. Each target
// is also served with metrics off and must allocate exactly as much with
// them on: the request instruments resolve their children once per route,
// not per request.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, err := gen.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	withMetrics := server.New(g, idx, server.WithMetrics(metrics.NewRegistry())).Handler()
	plain := server.New(g, idx).Handler()
	from, to := g.Coord(3), g.Coord(977)
	for _, c := range []struct {
		method, target, body string
		max                  float64
	}{
		{"GET", "/v1/distance?from=3&to=977", "", 1},
		{"GET", "/v1/route?from=3&to=977", "", 1},
		{"GET", fmt.Sprintf("/v1/route?from_x=%d&from_y=%d&to_x=%d&to_y=%d", from.X, from.Y, to.X, to.Y), "", 1},
		{"GET", fmt.Sprintf("/v1/nearest?x=%d&y=%d", from.X, from.Y), "", 1},
		{"GET", "/v1/stats", "", 1},
		{"POST", "/v1/knn", `{"source":3,"k":5}`, 15},
		{"POST", "/v1/within", `{"source":3,"radius":2000}`, 24},
		{"POST", "/v1/batch/distance", `{"sources":[3,17,977],"targets":[42,500,977]}`, 22},
		{"GET", "/healthz", "", 1},
		{"GET", "/readyz", "", 1},
		{"GET", "/v1/distance?from=abc&to=977", "", 11},
	} {
		allocs := func(h http.Handler) float64 {
			raw := []byte(c.body)
			body := bytes.NewReader(nil)
			req := httptest.NewRequest(c.method, c.target, nil)
			req.Body = io.NopCloser(body)
			w := &discardResponse{h: make(http.Header)}
			return testing.AllocsPerRun(200, func() {
				body.Reset(raw)
				h.ServeHTTP(w, req)
			})
		}
		on, off := allocs(withMetrics), allocs(plain)
		t.Logf("%s %s: %.0f allocs/request", c.method, c.target, on)
		if on > c.max {
			t.Errorf("%s %s: %.0f allocs/request, pinned at %.0f", c.method, c.target, on, c.max)
		}
		if on != off {
			t.Errorf("%s %s: %.0f allocs/request with metrics, %.0f without", c.method, c.target, on, off)
		}
	}
}
