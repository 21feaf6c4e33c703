// Package core is the paper's actual contribution rendered as code: a
// single experimental framework in which all five techniques — the
// bidirectional Dijkstra baseline, CH, TNR, SILC and PCPD (plus the ALT and
// arc-flags extensions) — are built behind one interface and measured
// under identical conditions: same graphs, same query workloads, same
// timing and space accounting, and the same memory-ceiling rule the paper
// applies ("we report the results of a technique on a dataset only when
// the size of its indexing structure is less than 24 GB").
//
// The package divides into:
//
//   - The Index/Searcher contract (core.go): immutable index data shared
//     across goroutines, mutable per-query state confined to searchers,
//     context-polling cancellation at bounded intervals in every search
//     loop. A Searcher answers Distance, DistanceContext and OpenPath, a
//     path only ever as a PathIterator. One type implements Index for all
//     seven techniques; its own Distance and ShortestPath run on one
//     default searcher, created by the first call, so building or loading
//     an index allocates no search state, and Index.ShortestPath is the
//     one place a path becomes a slice.
//   - Pool (pool.go): reusable searchers for request-per-goroutine
//     servers — optionally bounded (WithMaxSearchers), pre-warmed
//     (Prewarm) and instrumented (WithMetrics); the distance hot path
//     stays allocation-free and lock-free.
//   - Batch distance (Pool.BatchDistance in pool.go): the matrix behind
//     DistanceMatrix, from CH's many-to-many or per-pair queries, both
//     bit-identical to per-pair queries.
//   - Streaming paths: OpenPath returns a PathIterator over every
//     technique's own path production — lazy for CH and TNR, a reused
//     searcher buffer for the others.
//   - The spatial tier (spatial.go): an R-tree locator for point location
//     plus bounded Dijkstra searches for network k-NN and range queries.
//   - Persistence (serialize.go, loadfile.go): the flat container, loaded
//     from a file, mapped zero-copy or read onto the heap, with checksum
//     verification.
package core
