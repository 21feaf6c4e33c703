// Package server exposes a road-network query index over HTTP with a small
// JSON API — the "online map service" deployment shape the paper's
// introduction motivates (responsive query processing over memory-resident
// indexes).
//
// Endpoints:
//
//	GET  /v1/distance?from=ID&to=ID     distance query (§2)
//	GET  /v1/route?from=ID&to=ID        shortest path query (§2)
//	GET  /v1/nearest?x=X&y=Y            nearest vertex to a coordinate
//	GET  /v1/stats                      index and graph statistics
//	POST /v1/knn                        network k-nearest neighbors
//	POST /v1/within                     network range (vertices within a distance)
//	POST /v1/batch/distance             source x target distance matrix
//	POST /v1/batch/route                source x target full-path matrix
//
// Spatial tier: /v1/nearest snaps coordinates through a core.SpatialLocator
// (an STR-packed R-tree over the vertex coordinates — point location is
// O(log n), not a grid scan), /v1/route accepts from_x/from_y (to_x/to_y)
// coordinate endpoints snapped the same way, and /v1/knn + /v1/within
// answer the Appendix A "nearest restaurant at driving distance" workload:
// k-NN by network distance and network range with an optional R-tree
// geometric pre-filter, both one bounded Dijkstra whatever the index.
//
// Concurrency: the index data of every technique is immutable after
// construction, so the server shares one Index across all request
// goroutines and hands each request a per-goroutine query context from a
// core.Pool — there is no global query lock, and throughput scales with
// cores.
//
// Batch queries: the batch endpoints answer an entire sources x targets
// matrix in one request. The distance matrix comes from
// core.Pool.BatchDistance: CH runs the bucket many-to-many algorithm (one
// search per endpoint), and every other technique answers the pairs
// point-to-point on a pooled searcher. Batch route answers are always
// computed per pair so they are path-identical to sequential /v1/route
// calls.
//
// # The request path
//
// Every request takes one path, written once in request.go: serve (the one
// responseWriter wrapper, recording the status that reached the wire, which
// panic recovery, the request metrics and the batch stream all read) → rate
// limit → deadline (both optional) → mux → queryRoute → the endpoint's
// parse and run steps. queryRoute is the adapter every query endpoint is
// registered through: it runs parse (the raw query string read key by key
// through params, with url.ParseQuery's rules and no url.Values; strict
// body decoding, the vertex range check and coordinate snapping are each
// one shared function), counts the query — after validation, before
// admission to the searcher pool — runs it, and is the only caller of
// writeError. The query kind is static per route, so queryRoute is where
// per-stage timers, the request id and the access-log line attach.
//
// Every answer, error bodies and batch streams included, is appended into a
// pooled buffer by the one writer of writer.go and sent by reply.send (in
// chunks by the stream's flush): the one encode and write site, where those
// stages' timers attach. encoding/json remains only in decodeStrict.
//
// Steps report failure by returning an error. A typed {status, message}
// is what the client got wrong (400, 404, 413). A context error means the
// query was cut short — every run step propagates r.Context() into the
// query, and every technique's search loop polls it at bounded intervals
// (see the core.Searcher cancellation contract), so a client that
// disconnects or times out stops burning server CPU within a bounded
// number of search steps — and is answered 499 (client closed request) or
// 503 + Retry-After (deadline exceeded); a disconnected client never reads
// it, but tests and proxies do. Any other error is the server's own: 500,
// the cause to the log, not the client.
//
// # Observability
//
// WithMetrics wires a metrics.Registry through every layer and serves it
// at GET /metrics in Prometheus text format: per-endpoint request counts,
// latency histograms and the in-flight gauge (recorded by serve, so
// panic-recovery 500s and rate-limit 429s are counted like any other
// answer), per-technique query counters, batch stream
// accounting (pairs, streamed rows, truncations, vertex-budget hits),
// searcher-pool occupancy, and the draining/degraded/verified serving
// state. The scrape endpoint is exempt from rate limiting, like the
// health probes. All instrumentation is atomic adds on the request path —
// no locks, no allocations (each route keeps its children once resolved;
// TestRequestAllocs holds it) — and a server built without WithMetrics pays
// only nil checks. docs/METRICS.md documents every metric name.
package server
