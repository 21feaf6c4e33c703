package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/metrics"
)

// DefaultMaxBatchPairs bounds the sources x targets matrix size of one
// batch request, and DefaultMaxBatchBody the request body itself (a maximal
// legitimate batch — one list of 2^20 ten-digit ids — is ~12 MB), so a
// single request cannot monopolize the server. Batch route gets a much
// lower pair cap, DefaultMaxBatchRoutePairs: a distance cell is 8 bytes
// but a route cell is a full O(path-length) vertex list, so a
// distance-sized route matrix could materialize gigabytes of paths before
// the response is written. spserve has no flag for these: the constants
// are the one place the batch limits are set.
const (
	DefaultMaxBatchPairs      = 1 << 20
	DefaultMaxBatchRoutePairs = 1 << 14
	DefaultMaxBatchBody       = 16 << 20
)

// DefaultMaxKNN caps the k of one /v1/knn request and
// DefaultMaxWithinResults the neighbor count of one /v1/within response:
// k-NN cost grows with k on every engine, and a range answer is O(results)
// JSON. Override with WithSpatialLimits.
const (
	DefaultMaxKNN           = 1 << 10
	DefaultMaxWithinResults = 1 << 12
)

// DefaultBatchRouteVertexBudget caps the total number of path vertices one
// batch route response may carry (~4M vertices is tens of MB of JSON). The
// response is streamed, so the budget bounds bytes on the wire rather than
// resident memory — resident memory is bounded by the stream buffer no
// matter what. Override with WithBatchRouteVertexBudget.
const DefaultBatchRouteVertexBudget = 1 << 22

// statusClientClosedRequest is nginx's non-standard status for a request
// aborted because the client went away; no client reads it, but it keeps
// access logs and tests honest about why the query was cut short.
const statusClientClosedRequest = 499

// Server serves queries over one graph and one index.
type Server struct {
	g       *graph.Graph
	idx     core.Index
	pool    *core.Pool
	spatial *core.SpatialLocator
	health  *Health
	limiter *rateLimiter

	metricsReg *metrics.Registry
	m          *serverMetrics // nil when metrics are disabled

	maxBatchPairs      int
	maxBatchRoutePairs int
	maxBatchBody       int64
	routeVertexBudget  int64
	maxKNN             int
	maxWithinResults   int
	requestTimeout     time.Duration
}

// Option configures New.
type Option func(*Server)

// WithPool serves queries from a caller-built searcher pool — typically a
// bounded and/or pre-warmed one (see core.NewPool) — instead of the default
// unbounded pool. The pool must wrap the same index the server is given.
func WithPool(pool *core.Pool) Option {
	return func(s *Server) { s.pool = pool }
}

// WithBatchRouteVertexBudget overrides the total-vertex budget of one batch
// route response. A request whose paths would exceed the budget is answered
// 413 (JSON mode, when nothing has been sent yet) or truncated in-band with
// a marker line (NDJSON mode). Values <= 0 keep the default.
func WithBatchRouteVertexBudget(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.routeVertexBudget = n
		}
	}
}

// WithRequestTimeout puts a server-side deadline on every request: the
// request context is wrapped in a timeout and the PR-3 cancellation
// plumbing does the rest — a query running past the deadline is aborted at
// its next poll and answered 503. Values <= 0 disable the deadline
// (client-side cancellation still applies).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.requestTimeout = d }
}

// WithSpatialLimits overrides the spatial query guards: maxK caps the k of
// one /v1/knn request, maxResults the neighbor count of one /v1/within
// response (larger answers are truncated and flagged). Values <= 0 keep
// the corresponding default.
func WithSpatialLimits(maxK, maxResults int) Option {
	return func(s *Server) {
		if maxK > 0 {
			s.maxKNN = maxK
		}
		if maxResults > 0 {
			s.maxWithinResults = maxResults
		}
	}
}

// WithHealth shares a caller-owned Health record with the server's
// /healthz and /readyz endpoints, so the process lifecycle (signal
// handling, index verification) can drive what readiness reports. Without
// it the server owns a Health that always reports ready.
func WithHealth(h *Health) Option {
	return func(s *Server) { s.health = h }
}

// WithRateLimit admits at most qps requests per second per client (buckets
// keyed by the first X-Forwarded-For hop, else the remote host) with the
// given burst allowance. Requests over budget are answered 429 with a
// Retry-After header. qps <= 0 disables limiting; burst < 1 is raised
// to 1. Health probes are never limited.
func WithRateLimit(qps float64, burst int) Option {
	return func(s *Server) {
		if qps > 0 {
			s.limiter = newRateLimiter(qps, burst)
		}
	}
}

// WithSpatialLocator serves spatial queries from a caller-built locator —
// typically one wrapping an mmap-loaded R-tree (core.
// NewSpatialLocatorFromTree) — instead of the default STR bulk load over
// the graph. The locator must wrap the same graph the server is given.
func WithSpatialLocator(loc *core.SpatialLocator) Option {
	return func(s *Server) { s.spatial = loc }
}

// New returns a server for the given graph and index. The index is shared;
// all per-query state comes from a searcher pool, so the handler serves any
// number of requests concurrently.
func New(g *graph.Graph, idx core.Index, opts ...Option) *Server {
	s := &Server{
		g:                  g,
		idx:                idx,
		maxBatchPairs:      DefaultMaxBatchPairs,
		maxBatchRoutePairs: DefaultMaxBatchRoutePairs,
		maxBatchBody:       DefaultMaxBatchBody,
		routeVertexBudget:  DefaultBatchRouteVertexBudget,
		maxKNN:             DefaultMaxKNN,
		maxWithinResults:   DefaultMaxWithinResults,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.pool == nil {
		// A default pool under a metrics-enabled server reports its
		// occupancy on the same registry. Caller-supplied pools wire their
		// own metrics (core.WithMetrics) — see spserve.
		if s.metricsReg != nil {
			s.pool = core.NewPool(idx, core.WithMetrics(s.metricsReg))
		} else {
			s.pool = core.NewPool(idx)
		}
	}
	if s.spatial == nil {
		s.spatial = core.NewSpatialLocator(g)
	}
	if s.health == nil {
		s.health = NewHealth()
	}
	if s.metricsReg != nil {
		s.m = newServerMetrics(s.metricsReg, s)
	}
	return s
}

// Handler returns the HTTP handler: serve on top (the one response writer,
// panic recovery, and the request metrics, which therefore see what every
// inner layer answered), then per-client admission control and the
// per-request deadline (each when configured), then the routes, every query
// endpoint behind the queryRoute adapter. See request.go.
func (s *Server) Handler() http.Handler {
	routes := map[string]http.Handler{
		"GET /v1/distance":        queryRoute(s, "distance", parsePair(s.vertexParam), s.distance),
		"GET /v1/route":           queryRoute(s, "route", parsePair(s.endpointParam), s.route),
		"GET /v1/nearest":         queryRoute(s, "nearest", s.parseNearest, s.nearest),
		"POST /v1/knn":            queryRoute(s, "knn", s.parseKNN, s.knn),
		"POST /v1/within":         queryRoute(s, "within", s.parseWithin, s.within),
		"POST /v1/batch/distance": queryRoute(s, "batch_distance", s.parseBatch(s.maxBatchPairs), s.batchDistance),
		"POST /v1/batch/route":    queryRoute(s, "batch_route", s.parseBatch(s.maxBatchRoutePairs), s.batchRoute),
		"GET /v1/stats":           http.HandlerFunc(s.handleStats),
		"GET /healthz":            http.HandlerFunc(s.handleHealthz),
		"GET /readyz":             http.HandlerFunc(s.handleReadyz),
	}
	if s.m != nil {
		routes["GET /metrics"] = s.m.reg.Handler()
	}
	mux := http.NewServeMux()
	series := map[string]*routeMetrics{"other": {pattern: "other"}}
	for pattern, h := range routes {
		mux.Handle(pattern, h)
		series[pattern] = &routeMetrics{pattern: pattern}
	}
	var h http.Handler = mux
	if s.requestTimeout > 0 {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
			defer cancel()
			mux.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	if s.limiter != nil {
		h = s.rateLimit(h)
	}
	return s.serve(mux, series, h)
}

// pairQuery is a validated point-to-point request.
type pairQuery struct{ from, to graph.VertexID }

// vertexParam resolves one endpoint given as a vertex id (?from=ID).
func (s *Server) vertexParam(query params, name string) (graph.VertexID, error) {
	raw := query.get(name)
	if raw == "" {
		return 0, badRequest("missing parameter %q", name)
	}
	id, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, badRequest("parameter %q: %v", name, err)
	}
	return s.vertex(id)
}

// endpointParam resolves one route endpoint: a vertex id (?from=ID) or a
// coordinate snapped to its nearest vertex (?from_x=X&from_y=Y).
func (s *Server) endpointParam(query params, name string) (graph.VertexID, error) {
	xs, ys := query.get(name+"_x"), query.get(name+"_y")
	if query.get(name) != "" {
		if xs != "" || ys != "" {
			return 0, badRequest("give either %q or %s_x/%s_y, not both", name, name, name)
		}
		return s.vertexParam(query, name)
	}
	if xs == "" && ys == "" {
		return 0, badRequest("missing parameter %q (or %s_x and %s_y)", name, name, name)
	}
	x, errX := strconv.ParseInt(xs, 10, 32)
	y, errY := strconv.ParseInt(ys, 10, 32)
	if errX != nil || errY != nil {
		return 0, badRequest("parameters %s_x and %s_y must both be integers", name, name)
	}
	v, ok := s.snap(int32(x), int32(y))
	if !ok {
		return 0, badRequest("cannot snap %s_x/%s_y: empty graph", name, name)
	}
	return v, nil
}

// parsePair returns the parse step of a point-to-point endpoint: from and
// to, each resolved by param.
func parsePair(param func(params, string) (graph.VertexID, error)) func(http.ResponseWriter, *http.Request, params) (pairQuery, error) {
	return func(_ http.ResponseWriter, _ *http.Request, query params) (q pairQuery, err error) {
		if q.from, err = param(query, "from"); err == nil {
			q.to, err = param(query, "to")
		}
		return q, err
	}
}

func (s *Server) distance(w *responseWriter, r *http.Request, q pairQuery) error {
	d, err := s.pool.DistanceContext(r.Context(), q.from, q.to)
	if err != nil {
		return err
	}
	rp := newReply()
	rp.send(w, http.StatusOK, append(appendPair(rp.b, q, d < graph.Infinity, d), '}'))
	return nil
}

// route answers one shortest-path query, written straight off the lazy
// PathIterator in a single pass (see appendRoute): the path is never
// materialized.
func (s *Server) route(w *responseWriter, r *http.Request, q pairQuery) error {
	sr, err := s.pool.GetContext(r.Context())
	if err != nil {
		return err
	}
	defer s.pool.Put(sr)
	it, d, err := sr.OpenPath(r.Context(), q.from, q.to)
	if err != nil {
		return err
	}
	rp := newReply()
	doc, err := appendRoute(rp.b, s.g, q, it, d)
	if err != nil {
		rp.free()
		return err
	}
	rp.send(w, http.StatusOK, doc)
	return nil
}

// batchRequest asks for all pairs of Sources x Targets; both batch
// endpoints share the shape.
type batchRequest struct {
	Sources []int64 `json:"sources"`
	Targets []int64 `json:"targets"`
}

// batchQuery is a validated batchRequest.
type batchQuery struct{ sources, targets []graph.VertexID }

// vertexList validates raw ids from a batch request.
func (s *Server) vertexList(name string, raw []int64) ([]graph.VertexID, error) {
	out := make([]graph.VertexID, len(raw))
	for i, id := range raw {
		v, err := s.vertex(id)
		if err != nil {
			return nil, badRequest("%s[%d]: %v", name, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseBatch returns the parse step of a batch endpoint with the given
// pair limit.
func (s *Server) parseBatch(maxPairs int) func(http.ResponseWriter, *http.Request, params) (batchQuery, error) {
	return func(w http.ResponseWriter, r *http.Request, _ params) (q batchQuery, err error) {
		var req batchRequest
		if err := s.decodeStrict(w, r, &req); err != nil {
			return q, err
		}
		// Cap each list as well as the product: a huge list paired with an
		// empty one has product zero but would still burn CPU in validation.
		// The product is taken in int64 so it cannot wrap on 32-bit platforms.
		if len(req.Sources) > maxPairs || len(req.Targets) > maxPairs ||
			int64(len(req.Sources))*int64(len(req.Targets)) > int64(maxPairs) {
			return q, badRequest("batch of %d x %d pairs exceeds the %d-pair limit",
				len(req.Sources), len(req.Targets), maxPairs)
		}
		if q.sources, err = s.vertexList("sources", req.Sources); err == nil {
			q.targets, err = s.vertexList("targets", req.Targets)
		}
		return q, err
	}
}

// batchDistance answers a sources x targets distance matrix in one
// request (CH bucket many-to-many, or pooled point-to-point for every
// other technique; see core.Pool.BatchDistance). The matrix is computed
// in one piece — that is what makes CH's many-to-many fast — but the
// response is streamed through the fixed-size buffer of stream.go: one
// {"sources":[...],"targets":[...],"distances":[[...],...]} document, or,
// for clients sending "Accept: application/x-ndjson", one
// {"i":N,"distances":[...]} line per source row (flushed row by row, so a
// consumer can pipeline) and a final {"done":true}.
func (s *Server) batchDistance(w *responseWriter, r *http.Request, q batchQuery) error {
	s.m.observeBatch("batch_distance", len(q.sources)*len(q.targets))
	table, err := s.pool.BatchDistance(r.Context(), q.sources, q.targets)
	if err != nil {
		return err
	}
	st := s.newStream(w, r, `,"distances":[`, q)
	for i, row := range table {
		st.row(i, row)
	}
	st.end()
	s.m.countRows("batch_distance", len(table))
	return nil
}

// batchRoute answers a sources x targets matrix of full shortest paths in
// one request, under the same guards as batch distance but a lower pair
// cap (route cells carry whole paths, not one int64). Cells are produced
// one lazy PathIterator at a time on one pooled searcher and streamed
// straight into the response (see stream.go), so every cell is
// bit-identical to the corresponding sequential /v1/route answer while
// resident memory stays bounded by the stream buffer, independent of path
// length and matrix size. Both framings observe the total-vertex budget.
// The request context is polled inside every path query, aborting the
// batch mid-flight when the client goes away.
func (s *Server) batchRoute(w *responseWriter, r *http.Request, q batchQuery) error {
	s.m.observeBatch("batch_route", len(q.sources)*len(q.targets))
	sr, err := s.pool.GetContext(r.Context())
	if err != nil {
		return err
	}
	defer s.pool.Put(sr)
	st := s.newStream(w, r, `,"routes":[`, q)
	cells := 0
	for i, src := range q.sources {
		if !st.lines {
			st.b = append(append(st.b, sep(i)...), '[')
		}
		for j, tgt := range q.targets {
			it, d, err := sr.OpenPath(r.Context(), src, tgt)
			if err == nil {
				err = st.cell(i, j, it, d)
			}
			if err != nil {
				return st.fail(err, cells)
			}
			cells++
		}
		if st.lines {
			// Row boundary: push finished rows to slow consumers.
			st.flush()
		} else {
			st.b = append(st.b, ']')
		}
	}
	st.end()
	s.m.countRows("batch_route", cells)
	return nil
}

func (s *Server) parseNearest(_ http.ResponseWriter, _ *http.Request, query params) (geom.Point, error) {
	x, errX := strconv.ParseInt(query.get("x"), 10, 32)
	y, errY := strconv.ParseInt(query.get("y"), 10, 32)
	if errX != nil || errY != nil {
		return geom.Point{}, badRequest("parameters x and y must be integers")
	}
	return geom.Point{X: int32(x), Y: int32(y)}, nil
}

// nearest snaps a coordinate to its nearest vertex.
func (s *Server) nearest(w *responseWriter, _ *http.Request, at geom.Point) error {
	v, ok := s.snap(at.X, at.Y)
	if !ok {
		return &apiError{http.StatusNotFound, "empty graph"}
	}
	rp := newReply()
	rp.send(w, http.StatusOK, appendNearest(rp.b, v, s.g.Coord(v)))
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.idx.Stats()
	rp := newReply()
	rp.send(w, http.StatusOK, appendStats(rp.b, string(st.Method), s.g.NumVertices(), s.g.NumEdges(),
		st.IndexBytes, st.BuildTime.Milliseconds()))
}
