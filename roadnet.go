// Package roadnet is a Go library for shortest path and distance queries on
// road networks, reproducing the experimental evaluation of Wu et al.,
// "Shortest Path and Distance Queries on Road Networks: An Experimental
// Evaluation" (PVLDB 5(5), 2012).
//
// It implements the five techniques the paper compares behind one
// interface:
//
//   - Bidirectional Dijkstra (the baseline, §3.1)
//   - Contraction Hierarchies, CH (§3.2)
//   - Transit Node Routing, TNR, with the paper's corrected access-node
//     computation (§3.3, Appendix B)
//   - Spatially Induced Linkage Cognizance, SILC (§3.4)
//   - Path-Coherent Pairs Decomposition, PCPD (§3.5)
//
// plus ALT (Appendix A) as an extension, together with a synthetic
// road-network generator, DIMACS file IO, the paper's two query-workload
// generators, and every table and figure of the evaluation regenerated as
// counts (see cmd/spexp and EXPERIMENTS.md).
//
// # Quick start
//
//	g := roadnet.Generate(roadnet.GenParams{N: 10000, Seed: 1})
//	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
//	if err != nil { ... }
//	dist := idx.Distance(42, 4711)
//	path, dist := idx.ShortestPath(42, 4711)
//
// # Concurrency
//
// Every index's data is immutable once NewIndex (or LoadIndex) returns, so
// a single Index can be shared by any number of goroutines. The mutable
// search state (distance labels, generation counters, priority queues)
// lives in per-goroutine query contexts:
//
//   - Index.Distance and Index.ShortestPath run on the index's one default
//     searcher, created by the first such call, and are NOT safe for
//     concurrent use — they are the convenient single-goroutine API.
//
//   - Index.NewSearcher returns an independent Searcher; searchers from
//     separate calls may run queries concurrently, and a searcher is
//     reusable across queries with zero steady-state allocations on the
//     distance hot path.
//
//   - NewPool wraps an Index in a pool of searchers for servers that spawn
//     a goroutine per request. By default the pool is unbounded (backed by
//     sync.Pool); WithMaxSearchers caps the number of live searchers, and
//     Pool.Prewarm builds searchers ahead of the first request burst:
//
//     pool := roadnet.NewPool(idx, roadnet.WithMaxSearchers(64))
//     pool.Prewarm(8)
//     sr := pool.Get() // in each goroutine
//     dist := sr.Distance(42, 4711)
//     it, d, err := roadnet.OpenPath(ctx, sr, 7, 11) // drain it, then
//     pool.Put(sr)
//
// # Cancellation
//
// A Searcher's DistanceContext and OpenPath (and Pool.DistanceContext and
// Pool.BatchDistance) poll the context at bounded intervals (every 256
// settled vertices, path hops, or recursion steps, depending on the
// technique) and abort with the context's error. The polling reaches every
// search loop, including the bidirectional-Dijkstra fallback inside TNR,
// so a cancelled request stops consuming CPU within a bounded number of
// steps regardless of the serving technique. A query issued on an
// already-cancelled context aborts before doing any work, and an aborted
// searcher remains valid for reuse.
//
// # Batch queries
//
// DistanceMatrix (and Pool.BatchDistance) answer a full sources×targets
// distance matrix with the best accelerator the index offers. The
// per-technique acceleration matrix, each accelerator with the factor over
// the per-pair loop it was kept for:
//
//	CH        bucket many-to-many (Knopp et al.): one upward search per
//	          endpoint instead of |S|×|T| point-to-point queries; 13× at
//	          16×16 and 41–44× at 64×64 on random CA vertices, 5× on the
//	          regional 16×16 batches the benchmark's serve_batch workload
//	          sends (BenchmarkManyToManyVsPerPair in internal/ch)
//	SILC      target-wise path walks with shared-suffix memoization: hops
//	          shared by several sources' paths are walked once; 2.0–3.5×
//	          on NH (BenchmarkSILCBatchDistance in internal/silc)
//	others    per-pair queries on one reusable searcher
//
// Both accelerators return matrices bit-identical to per-pair queries.
//
// # Streaming paths
//
// OpenPath, a method of every Searcher and the one way a searcher answers
// a path query, yields a path vertex-by-vertex through a PathIterator, so
// consumers (the HTTP batch-route streamer in internal/server,
// cmd/spserve) copy nothing they do not keep. CH and TNR produce the
// vertices lazily, so resident state stays bounded by a continent-length
// path's shortcut nesting, not its length; the other techniques walk the
// path into a buffer their searcher reuses. Index.ShortestPath drains the
// same iterator into a slice, bit-identical to the stream.
//
// # Spatial queries
//
// NewSpatialLocator builds the spatial query tier: an immutable R-tree
// over the vertex coordinates answering point location (NearestVertex —
// snap a raw coordinate to the network) and radius search, and, on a
// bounded Dijkstra from the query vertex, network-distance k-nearest
// neighbors (KNearest) and network range queries (Within, with an optional
// Euclidean pre-filter). Geometry only ever prunes candidates; every
// returned distance is an exact network distance, and the answers do not
// depend on which index serves the point-to-point queries. SaveRTree and
// LoadRTreeFile persist the tree in the flat v2 mmap format alongside the
// graph and index caches.
package roadnet

import (
	"context"
	"io"

	"roadnet/internal/alt"
	"roadnet/internal/arcflags"
	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/metrics"
	"roadnet/internal/pcpd"
	"roadnet/internal/rtree"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// Graph is an undirected weighted road network with planar coordinates.
type Graph = graph.Graph

// VertexID identifies a vertex; ids are dense in [0, NumVertices).
type VertexID = graph.VertexID

// Weight is an edge weight (travel time).
type Weight = graph.Weight

// Edge is one undirected road segment.
type Edge = graph.Edge

// Infinity is the distance reported for unreachable pairs.
const Infinity = graph.Infinity

// Method selects a query technique.
type Method = core.Method

// The available techniques.
const (
	Dijkstra = core.MethodDijkstra
	CH       = core.MethodCH
	TNR      = core.MethodTNR
	SILC     = core.MethodSILC
	PCPD     = core.MethodPCPD
	ALT      = core.MethodALT
	ArcFlags = core.MethodArcFlags
)

// Methods lists the paper's five techniques in presentation order.
func Methods() []Method { return core.AllMethods() }

// Index is the unified query interface: exact distance and shortest-path
// queries plus preprocessing statistics. Index data is immutable after
// construction; see the package comment for the concurrency contract.
type Index = core.Index

// Searcher is a per-goroutine query context over a shared Index, obtained
// from Index.NewSearcher or a Pool. A Searcher is reusable but not safe
// for concurrent use.
type Searcher = core.Searcher

// PathIterator yields the vertices of one shortest path in order, on
// demand: Next returns vertices front to back and then false, after which
// Err distinguishes normal exhaustion (nil) from an aborted walk (the
// context's error). An iterator reads the per-query state of the searcher
// that opened it — it is invalidated by that searcher's next query and
// must be drained (or abandoned) before the searcher is reused.
type PathIterator = core.PathIterator

// OpenPath is sr.OpenPath: it streams the shortest path from s to t. The
// distance is reported up front and the vertices come from the technique's
// own iterator (CH shortcut unpacking and TNR table-walk stitching, lazily;
// the parent walks of the Dijkstra family, SILC's first-hop walk and PCPD's
// recursion, from the searcher's path buffer). The vertex sequence is
// bit-identical to Index.ShortestPath's. It returns (nil, Infinity, err) on
// cancellation, (nil, Infinity, nil) when t is unreachable from s, and
// (it, d, nil) otherwise. Iterators poll ctx at the same bounded intervals
// as DistanceContext.
func OpenPath(ctx context.Context, sr Searcher, s, t VertexID) (PathIterator, int64, error) {
	return sr.OpenPath(ctx, s, t)
}

// Pool hands out reusable Searchers over one shared Index so any number
// of goroutines can query concurrently with zero steady-state allocations
// on the distance hot path. See the package comment for bounding,
// pre-warming, cancellation and batch acceleration.
type Pool = core.Pool

// PoolOption configures NewPool.
type PoolOption = core.PoolOption

// WithMaxSearchers bounds a pool to at most n live searchers (Get blocks
// when all are checked out), capping the memory spent on per-searcher
// O(n) arrays on very large graphs.
func WithMaxSearchers(n int) PoolOption { return core.WithMaxSearchers(n) }

// MetricsRegistry collects instrumentation in Prometheus text exposition
// format, dependency-free and race-clean (see internal/metrics). One
// registry is typically shared by a pool (WithMetrics) and an HTTP server
// (internal/server's WithMetrics serves it at GET /metrics); docs/METRICS.md
// documents every metric the stack registers.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WithMetrics registers the pool's occupancy instrumentation with reg:
// checked-out searchers, blocked waiters, pre-warmed spares, the
// configured cap, and a histogram of how long blocking Gets waited. The
// accounting is atomic adds only — the distance hot path stays
// allocation-free and lock-free.
func WithMetrics(reg *MetricsRegistry) PoolOption { return core.WithMetrics(reg) }

// NewPool returns a searcher pool over idx.
func NewPool(idx Index, opts ...PoolOption) *Pool { return core.NewPool(idx, opts...) }

// Stats reports an index's preprocessing time and memory footprint.
type Stats = core.Stats

// Config tunes index construction; the zero value is a sensible default
// for every method.
type Config = core.Config

// Options of the individual techniques, re-exported for Config.
type (
	// CHOptions tunes contraction hierarchy preprocessing.
	CHOptions = ch.Options
	// TNROptions tunes the TNR grid, fallback and access-node algorithm.
	TNROptions = tnr.Options
	// SILCOptions tunes the SILC quadtree.
	SILCOptions = silc.Options
	// PCPDOptions tunes the PCPD decomposition.
	PCPDOptions = pcpd.Options
	// ALTOptions tunes landmark selection.
	ALTOptions = alt.Options
	// ArcFlagsOptions tunes the arc-flags grid.
	ArcFlagsOptions = arcflags.Options
)

// NewIndex builds the index of the chosen method over g.
func NewIndex(method Method, g *Graph, cfg Config) (Index, error) {
	return core.BuildIndex(method, g, cfg)
}

// SaveIndex serializes a built index so deployments can preprocess once
// and load at startup. CH, TNR and SILC are supported (the methods whose
// preprocessing is expensive).
func SaveIndex(idx Index, w io.Writer) error { return core.SaveIndex(idx, w) }

// LoadIndex deserializes an index of the given method, re-attaching it to
// g — the same network it was built on. This is the copying stream path;
// LoadIndexFile adds the zero-copy mmap path for files.
func LoadIndex(method Method, r io.Reader, g *Graph) (Index, error) {
	return core.LoadIndex(method, r, g)
}

// LoadInfo describes how LoadIndexFile brought an index off disk: the load
// mode (mmap or heap), the on-disk size and the load duration, for startup
// logging.
type LoadInfo = core.LoadInfo

// MmapSupported reports whether this platform has the zero-copy mmap load
// path (Linux and macOS). Elsewhere LoadIndexFile silently falls back to
// heap loads.
const MmapSupported = binio.MmapSupported

// ErrCorrupt is wrapped by every load error caused by bytes that do not
// hold up — failed structural validation, a layout other than the one this
// build writes, or a checksum mismatch. Callers
// test it with errors.Is to distinguish corruption (rebuild or fall back)
// from environmental failures (missing file, permissions). spserve's
// degraded mode keys off it: a corrupt index file falls back to exact
// Dijkstra answers instead of refusing to boot.
var ErrCorrupt = binio.ErrCorrupt

// ErrVersion is wrapped by the load error for a file of another container
// version: a cache written by another build, to be rebuilt from its source
// (spserve does so at boot).
var ErrVersion = binio.ErrVersion

// OpenOption tunes how index, graph and R-tree files are opened —
// currently whether their checksums are verified during the load.
type OpenOption = binio.OpenOption

// WithoutVerify skips the checksum verification every file loader in this
// package otherwise runs (a flipped byte on disk fails the load with a
// corruption error instead of producing silently wrong paths). Mapped
// loads then stay O(#sections) — no page of a multi-GB index is touched
// until a query needs it — at the cost of trusting the bytes: a query over
// damaged bytes may answer wrongly or panic. Audit such files with the
// spverify tool before serving from them.
func WithoutVerify() OpenOption { return binio.WithoutVerify() }

// LoadIndexFile loads an index from a file written by SaveIndex. The file
// is mapped when preferMmap is set and the platform supports it: the index
// arrays alias the page cache, making startup O(#sections) with near-zero
// allocations regardless of index size. Call CloseIndex to release a
// mapping.
//
// Checksums are verified by default (see WithoutVerify);
// LoadInfo.Verified records whether the bytes are known-good.
func LoadIndexFile(method Method, path string, g *Graph, preferMmap bool, opts ...OpenOption) (Index, LoadInfo, error) {
	return core.LoadIndexFile(method, path, g, preferMmap, opts...)
}

// CloseIndex releases the file mapping behind an index loaded by
// LoadIndexFile. The index must not be used afterwards. It is a no-op for
// built or stream-loaded indexes, so it may be deferred unconditionally.
func CloseIndex(idx Index) error { return core.CloseIndex(idx) }

// SaveGraph writes g's CSR arrays as a flat v2 container, so deployments
// can parse DIMACS text once and map the binary form at every startup.
func SaveGraph(w io.Writer, g *Graph) error { return g.Save(w) }

// LoadGraph reads a graph written by SaveGraph from a stream (copying
// path; see LoadGraphFile for the zero-copy path).
func LoadGraph(r io.Reader) (*Graph, error) { return graph.ReadGraph(r) }

// LoadGraphFile maps (or, with preferMmap false or where unsupported,
// reads) a graph file written by SaveGraph. A mapped graph's arrays alias
// the page cache; call Close on the graph when it is retired. Checksums
// are verified by default (see WithoutVerify).
func LoadGraphFile(path string, preferMmap bool, opts ...OpenOption) (*Graph, error) {
	return graph.LoadFile(path, preferMmap, opts...)
}

// GenParams configures the synthetic road-network generator.
type GenParams = gen.Params

// Generate builds a seeded synthetic road network with road-like structure
// (see internal/gen for the properties it guarantees).
func Generate(p GenParams) *Graph { return gen.Generate(p) }

// DatasetPreset names a scaled analogue of one of the paper's Table 1
// datasets (DE ... US).
type DatasetPreset = gen.Preset

// Presets returns the ten scaled Table 1 dataset presets.
func Presets() []DatasetPreset { return gen.Presets }

// GeneratePreset generates the named preset dataset.
func GeneratePreset(name string) (*Graph, error) { return gen.GeneratePreset(name) }

// LoadDIMACS reads a road network from DIMACS Implementation Challenge
// .gr (graph) and .co (coordinates) streams — the format of the paper's
// real datasets.
func LoadDIMACS(gr, co io.Reader) (*Graph, error) { return graph.ReadDIMACS(gr, co) }

// WriteDIMACS writes g in DIMACS .gr/.co format.
func WriteDIMACS(gr, co io.Writer, g *Graph) error {
	if err := graph.WriteGR(gr, g); err != nil {
		return err
	}
	return graph.WriteCO(co, g)
}

// DistanceMatrix computes all source-target distances with the best
// accelerator the index offers (see the package comment's acceleration
// matrix: CH bucket many-to-many, SILC shared-suffix walks, per-pair
// queries otherwise). Unreachable pairs hold Infinity.
func DistanceMatrix(idx Index, sources, targets []VertexID) [][]int64 {
	table, _ := DistanceMatrixContext(context.Background(), idx, sources, targets)
	return table
}

// DistanceMatrixContext is DistanceMatrix with cancellation: all
// accelerators poll ctx at bounded intervals, and on cancellation the
// partial matrix is discarded and ctx's error returned. Dispatch lives in
// Pool.BatchDistance, the one copy of the per-technique batch policy.
func DistanceMatrixContext(ctx context.Context, idx Index, sources, targets []VertexID) ([][]int64, error) {
	return core.NewPool(idx).BatchDistance(ctx, sources, targets)
}

// Neighbor is one (vertex, network distance) result of a spatial query,
// ordered by (distance, id).
type Neighbor = core.Neighbor

// Point is a planar vertex coordinate.
type Point = geom.Point

// SpatialLocator is the spatial query tier over one graph: an immutable
// R-tree over the vertex coordinates (point location and radius search)
// plus the bounded network searches (KNearest, Within). Geometry only ever prunes; network distances decide. A locator
// is safe for concurrent use.
type SpatialLocator = core.SpatialLocator

// WithinOptions tunes SpatialLocator.Within: an optional Euclidean
// pre-filter radius and a result cap.
type WithinOptions = core.WithinOptions

// NewSpatialLocator bulk-loads an R-tree over g's vertex coordinates.
func NewSpatialLocator(g *Graph) *SpatialLocator { return core.NewSpatialLocator(g) }

// RTree is an immutable R-tree over (point, id) entries — the geometric
// index behind SpatialLocator, reusable standalone. See internal/rtree for
// the construction and query API.
type RTree = rtree.Tree

// SaveRTree writes a SpatialLocator's R-tree as a flat v2 container, so
// deployments can bulk-load once and mmap at every startup
// (LoadRTreeFile + NewSpatialLocatorFromTree).
func SaveRTree(w io.Writer, t *RTree) error { return t.Save(w) }

// LoadRTreeFile maps (or, with preferMmap false or where unsupported,
// reads) an R-tree file written by SaveRTree. Call Close on the tree when
// it is retired to release a mapping. Checksums are verified by default
// (see WithoutVerify).
func LoadRTreeFile(path string, preferMmap bool, opts ...OpenOption) (*RTree, error) {
	return rtree.LoadFile(path, preferMmap, opts...)
}

// NewSpatialLocatorFromTree wraps a previously saved (possibly mmap'd)
// R-tree; the tree must index exactly g's vertices.
func NewSpatialLocatorFromTree(g *Graph, t *RTree) (*SpatialLocator, error) {
	return core.NewSpatialLocatorFromTree(g, t)
}

// QueryPair is one (source, target) query.
type QueryPair = workload.Pair

// QuerySet is a bucket of query pairs with a distance range, e.g. Q3.
type QuerySet = workload.QuerySet

// WorkloadConfig tunes query-set generation.
type WorkloadConfig = workload.Config

// LInfQuerySets generates the paper's Q1..Q10 analogues: query pairs
// bucketed by L-infinity distance (§4.2).
func LInfQuerySets(g *Graph, cfg WorkloadConfig) ([]QuerySet, error) {
	return workload.LInfSets(g, cfg)
}

// NetworkDistanceQuerySets generates the R1..R10 analogues: query pairs
// bucketed by shortest-path distance (Appendix E.2).
func NetworkDistanceQuerySets(g *Graph, cfg WorkloadConfig) ([]QuerySet, error) {
	return workload.NetworkDistanceSets(g, cfg)
}

// SaveQuerySets persists query sets as CSV, so different runs or different
// implementations can be measured on byte-identical workloads.
func SaveQuerySets(w io.Writer, sets []QuerySet) error { return workload.WriteCSV(w, sets) }

// LoadQuerySets reads query sets written by SaveQuerySets, validating the
// vertex ids against g.
func LoadQuerySets(r io.Reader, g *Graph) ([]QuerySet, error) { return workload.ReadCSV(r, g) }
