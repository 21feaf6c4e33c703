package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/metrics"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

// newMetricsServer builds a CH test server with a metrics registry wired
// through every layer, plus any extra options the test needs.
func newMetricsServer(t *testing.T, opts ...server.Option) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	g := testutil.SmallRoad(400, 953)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	ts := httptest.NewServer(server.New(g, idx,
		append([]server.Option{server.WithMetrics(reg)}, opts...)...).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func wantLine(t *testing.T, out, line string) {
	t.Helper()
	if !strings.Contains(out, line+"\n") {
		t.Errorf("exposition missing %q; got:\n%s", line, out)
	}
}

// TestMetricsRequestAccounting drives distinct outcomes through the
// instrumented chain and checks each lands under the right (endpoint,
// code) label: a served query, a validation failure, and an unregistered
// path collapsed into "other".
func TestMetricsRequestAccounting(t *testing.T) {
	ts, _ := newMetricsServer(t)
	var resp struct{ Reachable bool }
	getJSON(t, ts.URL+"/v1/distance?from=0&to=5", http.StatusOK, &resp)
	getJSON(t, ts.URL+"/v1/distance?from=-1&to=5", http.StatusBadRequest, &struct{ Error string }{})
	r, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	out := scrape(t, ts)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="GET /v1/distance",code="2xx"} 1`)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="GET /v1/distance",code="4xx"} 1`)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="other",code="4xx"} 1`)
	wantLine(t, out, `roadnet_http_request_duration_seconds_count{endpoint="GET /v1/distance"} 2`)
	// Only the validated request reached the query layer.
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="distance"} 1`)
	// The scrape itself is the only request in flight while it runs.
	wantLine(t, out, `roadnet_http_requests_in_flight 1`)
	// The default pool under a metrics-enabled server reports occupancy.
	wantLine(t, out, `roadnet_pool_in_use 0`)

	t.Run("counted before admission", queryCountedBeforeAdmission)
}

// queryCountedBeforeAdmission pins the one counting rule for every kind: a
// validated request is a query from the moment it is accepted, whether or
// not it is ever admitted to the searcher pool. The pool's only searcher
// is held and the request's deadline has passed, so /v1/knn answers 503
// from the pool wait — and still counts, like the /v1/route beside it.
func queryCountedBeforeAdmission(t *testing.T) {
	g := testutil.SmallRoad(400, 953)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(idx, core.WithMaxSearchers(1))
	held, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(held)
	h := server.New(g, idx, server.WithPool(pool), server.WithMetrics(metrics.NewRegistry())).Handler()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, c := range [][3]string{
		{http.MethodPost, "/v1/knn", `{"source":0,"k":3}`},
		{http.MethodPost, "/v1/within", `{"source":0,"radius":50}`},
		{http.MethodGet, "/v1/route?from=0&to=5", ""},
	} {
		if rec := serveWithContext(expired, h, c[0], c[1], c[2]); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s with the pool exhausted: status %d, want 503", c[0], c[1], rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="knn"} 1`)
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="within"} 1`)
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="route"} 1`)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="POST /v1/knn",code="503"} 1`)
}

// TestMetricsRateLimited checks a 429 keeps its exact code label and that
// the /metrics scrape itself is exempt from admission control.
func TestMetricsRateLimited(t *testing.T) {
	ts, _ := newMetricsServer(t, server.WithRateLimit(0.001, 1))
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	out := scrape(t, ts) // must not itself be rate limited
	wantLine(t, out, `roadnet_http_requests_total{endpoint="GET /v1/stats",code="2xx"} 1`)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="GET /v1/stats",code="429"} 1`)
	// A second scrape still works: the exemption is per-path, not one-shot.
	out = scrape(t, ts)
	wantLine(t, out, `roadnet_http_requests_total{endpoint="GET /v1/stats",code="429"} 1`)
}

// TestMetricsHealthGauges flips the shared Health record and watches the
// serving-state gauges follow it.
func TestMetricsHealthGauges(t *testing.T) {
	h := server.NewHealth()
	h.SetVerified(true)
	ts, _ := newMetricsServer(t, server.WithHealth(h))

	out := scrape(t, ts)
	wantLine(t, out, "roadnet_server_draining 0")
	wantLine(t, out, "roadnet_server_degraded 0")
	wantLine(t, out, "roadnet_index_verified 1")

	h.SetDraining()
	h.SetDegraded("index checksum mismatch")
	h.SetVerified(false)
	out = scrape(t, ts)
	wantLine(t, out, "roadnet_server_draining 1")
	wantLine(t, out, "roadnet_server_degraded 1")
	wantLine(t, out, "roadnet_index_verified 0")
}

// TestMetricsBuildInfoAndRuntime checks what /metrics says about the
// process itself: which binary and technique, and the runtime readings — a
// process serving this scrape has goroutines and a heap, and a collector
// that may not have paused it yet. The k-NN dispatch families left with the
// fork they counted.
func TestMetricsBuildInfoAndRuntime(t *testing.T) {
	ts, _ := newMetricsServer(t)
	out := scrape(t, ts)
	wantLine(t, out, `roadnet_build_info{go_version="`+runtime.Version()+`",method="ch"} 1`)
	for name, min := range map[string]float64{
		"roadnet_go_goroutines":                 1,
		"roadnet_go_heap_inuse_bytes":           1,
		"roadnet_go_gc_pause_cpu_seconds_total": 0,
	} {
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(out)
		if m == nil {
			t.Errorf("exposition has no %s sample; got:\n%s", name, out)
		} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v < min {
			t.Errorf("%s = %q, want at least %v", name, m[1], min)
		}
	}
	if strings.Contains(out, "roadnet_knn_") {
		t.Errorf("exposition still serves a roadnet_knn_* family:\n%s", out)
	}
}

// TestMetricsBatchAccounting checks the pair histogram and streamed-row
// counters for both batch endpoints and framings.
func TestMetricsBatchAccounting(t *testing.T) {
	ts, _ := newMetricsServer(t)
	body := `{"sources":[0,1],"targets":[2,3,4]}`
	for _, ep := range []string{"/v1/batch/distance", "/v1/batch/route"} {
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", ep, resp.StatusCode)
		}
	}
	out := scrape(t, ts)
	wantLine(t, out, `roadnet_batch_pairs_count{endpoint="batch_distance"} 1`)
	wantLine(t, out, `roadnet_batch_pairs_sum{endpoint="batch_distance"} 6`)
	// Distance streams one row per source, route one cell per pair.
	wantLine(t, out, `roadnet_batch_rows_streamed_total{endpoint="batch_distance"} 2`)
	wantLine(t, out, `roadnet_batch_rows_streamed_total{endpoint="batch_route"} 6`)
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="batch_distance"} 1`)
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="batch_route"} 1`)
}

// TestMetricsVertexBudgetTruncation forces the batch route vertex budget
// to bite mid-stream in NDJSON mode and checks both the budget-hit counter
// and the truncation counter record it.
func TestMetricsVertexBudgetTruncation(t *testing.T) {
	// Budget 1: the first row (0 -> 0, a single-vertex path) fits exactly
	// and its row-boundary flush commits the stream; the second row then
	// exceeds the spent budget mid-stream, after commit.
	ts, _ := newMetricsServer(t, server.WithBatchRouteVertexBudget(1))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch/route",
		strings.NewReader(`{"sources":[0,1],"targets":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"truncated":true`) {
		t.Fatalf("expected in-band truncation, got %s", raw)
	}
	out := scrape(t, ts)
	wantLine(t, out, "roadnet_batch_vertex_budget_hits_total 1")
	wantLine(t, out, `roadnet_batch_truncations_total{mode="ndjson"} 1`)
}

// TestMetricsDisabledByDefault checks a server built without WithMetrics
// serves no /metrics route and pays no instrumentation.
func TestMetricsDisabledByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics on plain server: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsConcurrentScrape hammers queries while scraping, as the race
// detector's view of the full middleware + registry stack.
func TestMetricsConcurrentScrape(t *testing.T) {
	ts, _ := newMetricsServer(t)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				r, err := http.Get(fmt.Sprintf("%s/v1/distance?from=%d&to=%d", ts.URL, w, 100+i))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		scrape(t, ts)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	out := scrape(t, ts)
	wantLine(t, out, `roadnet_queries_total{method="ch",kind="distance"} 100`)
}
