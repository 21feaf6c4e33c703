// Package rtree implements an R-tree over planar integer points — the
// spatial access method behind the server's point-location tier (snap a
// coordinate to the nearest vertex, enumerate vertices in a rectangle or
// radius).
//
// BulkLoad packs a full entry set with Sort-Tile-Recursive (STR), which
// yields near-full nodes; node capacity is configurable. Save/LoadFile
// persist a tree in the flat container (see internal/binio), so deployments
// bulk-load once and mmap at every startup.
//
// Concurrency contract (same as every index in this repository): a Tree is
// immutable once built and all query methods are read-only and keep their
// state on the stack, so any number of goroutines may query one Tree
// concurrently.
//
// Distances are squared Euclidean in int64. Like the rest of the geometry
// in this repository they assume DIMACS micro-degree coordinate magnitudes
// (|coord| < 2^30), for which the squares cannot overflow.
package rtree
