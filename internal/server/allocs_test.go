package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/metrics"
	"roadnet/internal/server"
)

// TestRequestAllocs is the count gate on the HTTP layer: heap allocations
// of one in-process request through Handler() — metrics on, DE + CH, the
// request value reused, the response discarded — so what is counted is the
// request path itself (query-string parse, validation, pool checkout,
// search, encoding). The pins are measured, not aspirational: a change
// that adds an allocation per request fails here and says which endpoint.
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
	h := server.New(g, idx, server.WithMetrics(metrics.NewRegistry())).Handler()
	from, to := g.Coord(3), g.Coord(977)
	for _, c := range []struct {
		target string
		max    float64
	}{
		{"/v1/distance?from=3&to=977", 9},
		{"/v1/route?from=3&to=977", 22},
		{fmt.Sprintf("/v1/route?from_x=%d&from_y=%d&to_x=%d&to_y=%d", from.X, from.Y, to.X, to.Y), 40},
	} {
		req := httptest.NewRequest(http.MethodGet, c.target, nil)
		w := &discardResponse{h: make(http.Header)}
		got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		t.Logf("%s: %.0f allocs/request", c.target, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs/request, pinned at %.0f", c.target, got, c.max)
		}
	}
}
