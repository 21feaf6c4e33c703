// Server instrumentation: the /metrics exposition and the instruments the
// request path (request.go) feeds. The paper's whole contribution is careful
// measurement of query techniques; this file is the serve-time counterpart
// — every layer the request passes through (admission, pool, technique
// dispatch, streaming) reports what it did, in Prometheus text format,
// without locks on any hot path. docs/METRICS.md is the operator-facing
// reference for every name registered here.
package server

import (
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/metrics"
)

// WithMetrics exposes the server's instrumentation through reg and serves
// it at GET /metrics: per-endpoint request counters, latency histograms
// and the in-flight gauge, per-technique query counters, batch stream
// accounting, and readiness-state gauges. When the server builds its own
// default pool, the pool's occupancy metrics are registered too; a pool
// supplied with WithPool should be built with core.WithMetrics on the same
// registry (as cmd/spserve does), since the server must not second-guess
// a caller-owned pool's wiring.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) { s.metricsReg = reg }
}

// serverMetrics holds every instrument the HTTP layer feeds. A nil
// *serverMetrics is valid and inert — all observation methods are
// nil-receiver-safe, so handlers call them unconditionally and servers
// without WithMetrics pay only the nil check.
type serverMetrics struct {
	reg *metrics.Registry

	inflight *metrics.Gauge
	requests *metrics.CounterVec
	latency  *metrics.HistogramVec

	// queries is roadnet_queries_total; each queryRoute resolves its kind's
	// child once, at registration (see queryCounter).
	queries *metrics.CounterVec
	method  string

	// Batch accounting, children pre-resolved per endpoint.
	pairs      map[string]*metrics.Histogram
	rows       map[string]*metrics.Counter
	truncation map[string]*metrics.Counter
	budgetHits *metrics.Counter
}

// batchEndpoints are the label values of the batch accounting families.
var batchEndpoints = []string{"batch_distance", "batch_route"}

// newServerMetrics registers every server-level family with reg and
// resolves the hot-path children. Called once from New, after the pool,
// health and spatial locator are wired, so the gauge functions can close
// over them.
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{reg: reg}

	m.inflight = reg.Gauge("roadnet_http_requests_in_flight",
		"Requests currently being served.")
	m.requests = reg.CounterVec("roadnet_http_requests_total",
		"Requests served, by route pattern and status (exact code for 429/499/500/503, class otherwise).",
		"endpoint", "code")
	m.latency = reg.HistogramVec("roadnet_http_request_duration_seconds",
		"Wall-clock time from the first middleware to the response, by route pattern.",
		metrics.LatencyBuckets, "endpoint")

	m.method = string(s.idx.Method())
	m.queries = reg.CounterVec("roadnet_queries_total",
		"Queries answered, by serving technique and query kind.",
		"method", "kind")

	pairs := reg.HistogramVec("roadnet_batch_pairs",
		"Sources x targets pairs per accepted batch request (the _sum is total pairs answered).",
		metrics.SizeBuckets, "endpoint")
	rows := reg.CounterVec("roadnet_batch_rows_streamed_total",
		"Response units streamed: matrix rows for batch distance, path cells for batch route.",
		"endpoint")
	m.pairs = make(map[string]*metrics.Histogram, len(batchEndpoints))
	m.rows = make(map[string]*metrics.Counter, len(batchEndpoints))
	for _, e := range batchEndpoints {
		m.pairs[e] = pairs.With(e)
		m.rows[e] = rows.With(e)
	}
	trunc := reg.CounterVec("roadnet_batch_truncations_total",
		"Batch responses cut short after commit: NDJSON in-band markers and JSON connection aborts.",
		"mode")
	m.truncation = map[string]*metrics.Counter{
		"json":   trunc.With("json"),
		"ndjson": trunc.With("ndjson"),
	}
	m.budgetHits = reg.Counter("roadnet_batch_vertex_budget_hits_total",
		"Batch route requests stopped by the total-vertex budget (413 or in-band truncation).")

	// Serving-state gauges read the shared Health record at scrape time —
	// the same flags /readyz reports, in a form dashboards can plot.
	h := s.health
	reg.GaugeFunc("roadnet_server_draining",
		"1 while the server is draining for shutdown (readiness answers 503).",
		func() float64 { return boolGauge(h.Draining()) })
	reg.GaugeFunc("roadnet_server_degraded",
		"1 while serving exact Dijkstra answers because the real index failed verification.",
		func() float64 { return boolGauge(h.Degraded()) })
	reg.GaugeFunc("roadnet_index_verified",
		"1 when every byte behind the serving state was built in-process or checksum-verified at load.",
		func() float64 { return boolGauge(h.Verified()) })

	// TNR's table/fallback split is the live analogue of the paper's
	// Figure 9/11 locality analysis.
	if t := core.TNROf(s.idx); t != nil {
		reg.CounterFunc("roadnet_tnr_table_queries_total",
			"TNR queries answered from the precomputed transit-node tables, across all searchers.",
			func() float64 { table, _ := t.QueryCounts(); return float64(table) })
		reg.CounterFunc("roadnet_tnr_fallback_queries_total",
			"TNR queries answered by the fallback technique (local pairs), across all searchers.",
			func() float64 { _, fb := t.QueryCounts(); return float64(fb) })
	}

	// What is running, and the health of the runtime under it — read from
	// runtime/metrics at scrape time, nothing on a request path.
	reg.GaugeVec("roadnet_build_info",
		"Constant 1, labelled with the Go version of the binary and the serving technique.",
		"go_version", "method").With(runtime.Version(), m.method).Set(1)
	reg.GaugeFunc("roadnet_go_goroutines",
		"Live goroutines.",
		runtimeValue("/sched/goroutines:goroutines"))
	reg.GaugeFunc("roadnet_go_heap_inuse_bytes",
		"Bytes of heap occupied by live objects and dead objects the collector has not yet freed.",
		runtimeValue("/memory/classes/heap/objects:bytes"))
	reg.CounterFunc("roadnet_go_gc_pause_cpu_seconds_total",
		"Estimated CPU seconds the program has spent paused by the garbage collector (pause time x GOMAXPROCS).",
		runtimeValue("/cpu/classes/gc/pause:cpu-seconds"))

	return m
}

// runtimeValue returns a scrape-time reader of one scalar runtime/metrics
// sample, 0 if this runtime does not export the name.
func runtimeValue(name string) func() float64 {
	return func() float64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		switch v := sample[0].Value; v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// queryCounter returns the roadnet_queries_total child of one query kind
// under the serving technique, nil when metrics are disabled.
func (m *serverMetrics) queryCounter(kind string) *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.queries.With(m.method, kind)
}

// observeBatch records an accepted batch request's pair count.
func (m *serverMetrics) observeBatch(endpoint string, pairs int) {
	if m == nil {
		return
	}
	m.pairs[endpoint].Observe(float64(pairs))
}

// countRows records n streamed response units for a batch endpoint.
func (m *serverMetrics) countRows(endpoint string, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.rows[endpoint].Add(uint64(n))
}

// countTruncation records a committed batch response cut short, by mode.
func (m *serverMetrics) countTruncation(mode string) {
	if m == nil {
		return
	}
	m.truncation[mode].Inc()
}

// countBudgetHit records a batch route stopped by the vertex budget.
func (m *serverMetrics) countBudgetHit() {
	if m == nil {
		return
	}
	m.budgetHits.Inc()
}

// codeLabels is the code label set of roadnet_http_requests_total: the
// operationally distinct statuses exact (429 rate limited, 499 client gone,
// 500 server fault, 503 overloaded/draining), every other one its class.
var codeLabels = [...]string{"429", "499", "500", "503", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// codeSlot indexes codeLabels by a status net/http accepts (100 to 999), or
// by 0: nothing was written, and net/http sends 200.
func codeSlot(code int) int {
	exact := [...]int{http.StatusTooManyRequests, statusClientClosedRequest,
		http.StatusInternalServerError, http.StatusServiceUnavailable}
	if i := slices.Index(exact[:], code); i >= 0 {
		return i
	}
	if code == 0 {
		code = http.StatusOK
	}
	return len(exact) - 1 + code/100
}

// routeMetrics holds one endpoint's children of the latency and request
// families, each resolved when first observed (a series appears on first
// use) and kept, so a request resolves no label values.
type routeMetrics struct {
	pattern string
	latency atomic.Pointer[metrics.Histogram]
	codes   [len(codeLabels)]atomic.Pointer[metrics.Counter]
}

// observe records one answered request: its latency and its status.
func (rm *routeMetrics) observe(m *serverMetrics, status int, took time.Duration) {
	h := rm.latency.Load()
	if h == nil {
		h = m.latency.With(rm.pattern)
		rm.latency.Store(h)
	}
	h.Observe(took.Seconds())
	i := codeSlot(status)
	c := rm.codes[i].Load()
	if c == nil {
		c = m.requests.With(rm.pattern, codeLabels[i])
		rm.codes[i].Store(c)
	}
	c.Inc()
}
