package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"roadnet/internal/alt"
	"roadnet/internal/arcflags"
	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// Method identifies one of the evaluated techniques.
type Method string

// The evaluated methods. Dijkstra is the baseline of §3.1; the other four
// are the techniques compared throughout §4; ALT is the Appendix A
// extension.
const (
	MethodDijkstra Method = "dijkstra"
	MethodCH       Method = "ch"
	MethodTNR      Method = "tnr"
	MethodSILC     Method = "silc"
	MethodPCPD     Method = "pcpd"
	MethodALT      Method = "alt"
	MethodArcFlags Method = "arcflags"
)

// AllMethods lists the paper's five techniques in presentation order.
func AllMethods() []Method {
	return []Method{MethodDijkstra, MethodCH, MethodTNR, MethodSILC, MethodPCPD}
}

// Stats describes a built index.
type Stats struct {
	Method Method
	// BuildTime is the preprocessing wall-clock time (zero for the
	// baseline, which has no preprocessing).
	BuildTime time.Duration
	// IndexBytes is the in-memory size of the index structures, the
	// quantity of Figure 6(a).
	IndexBytes int64
}

// Index is the unified query interface every technique implements.
//
// Concurrency contract: the index data of every technique is immutable
// after BuildIndex/LoadIndex returns, so one Index may be shared by any
// number of goroutines — but the Distance and ShortestPath methods of the
// Index itself run on a single internal query context and are NOT safe for
// concurrent use. For concurrent serving, call NewSearcher once per
// goroutine (or use a Pool) and query through the Searchers.
type Index interface {
	// Method returns the technique's identifier.
	Method() Method
	// Distance answers a distance query (§2), returning graph.Infinity for
	// unreachable pairs.
	Distance(s, t graph.VertexID) int64
	// ShortestPath answers a shortest path query (§2), returning the
	// vertex sequence and the path length, or (nil, graph.Infinity).
	ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64)
	// NewSearcher returns a fresh query context sharing the index's
	// immutable data. Searchers from distinct NewSearcher calls may be
	// used concurrently; a single Searcher may not.
	NewSearcher() Searcher
	// Stats reports preprocessing time and space.
	Stats() Stats
}

// Searcher is a per-goroutine query context over a shared Index: it owns
// all mutable search state (distance labels, generation counters, heaps),
// while the index data it reads is immutable. A Searcher is reusable
// across any number of queries with zero steady-state allocations on the
// distance hot path, but is not safe for concurrent use — create one per
// goroutine, or hand them out through a Pool.
// Cancellation contract: the Context variants poll ctx at bounded
// intervals (every cancel.Interval settled vertices, path hops, or
// recursion steps — whichever unit the technique's query loop advances in)
// and abort with ctx's error. Every technique polls, including the
// bidirectional-Dijkstra fallback inside TNR, so a cancelled request stops
// burning CPU within a bounded number of steps no matter which index
// serves it. A query issued on an already-cancelled context aborts before
// doing any work, and an aborted Searcher remains valid for reuse.
type Searcher interface {
	// Distance answers a distance query, returning graph.Infinity for
	// unreachable pairs.
	Distance(s, t graph.VertexID) int64
	// ShortestPath answers a shortest path query, returning the vertex
	// sequence and the path length, or (nil, graph.Infinity).
	ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64)
	// DistanceContext is Distance with cancellation: it polls ctx at
	// bounded intervals and aborts with its error.
	DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error)
	// ShortestPathContext is ShortestPath with cancellation.
	ShortestPathContext(ctx context.Context, s, t graph.VertexID) ([]graph.VertexID, int64, error)
}

// BatchDistancer is the per-technique batch acceleration contract: a
// Searcher additionally implements it when the technique can answer a full
// sources×targets distance matrix faster than |S|×|T| independent
// point-to-point queries. TNR implements it with one table-lookup sweep
// whose per-endpoint access-node operands are computed once per endpoint,
// and SILC with target-wise walks that memoize shared path suffixes; CH
// batches are routed to the hierarchy's bucket many-to-many algorithm by
// Pool.BatchDistance before this interface is consulted.
//
// table[i][j] must be dist(sources[i], targets[j]) with graph.Infinity for
// unreachable pairs, bit-identical to per-pair DistanceContext calls, and
// implementations must poll ctx at bounded intervals, returning its error
// on cancellation.
type BatchDistancer interface {
	BatchDistance(ctx context.Context, sources, targets []graph.VertexID) ([][]int64, error)
}

// ErrIndexTooLarge is returned when an index exceeds the configured memory
// ceiling, mirroring the paper's 24 GB main-memory rule.
var ErrIndexTooLarge = errors.New("core: index exceeds the memory ceiling")

// Config tunes index construction for the evaluation.
type Config struct {
	// MaxIndexBytes drops indexes larger than this (0 = no ceiling). The
	// paper's analogue is its 24 GB rule.
	MaxIndexBytes int64
	// TNR holds the TNR grid configuration.
	TNR tnr.Options
	// CH holds the CH configuration.
	CH ch.Options
	// SILC holds the SILC configuration.
	SILC silc.Options
	// PCPD holds the PCPD configuration.
	PCPD pcpd.Options
	// ALT holds the ALT configuration.
	ALT alt.Options
	// ArcFlags holds the arc-flags configuration.
	ArcFlags arcflags.Options
	// Hierarchy optionally shares a prebuilt CH across methods (used by
	// the harness so the preprocessing of TNR, SILC, PCPD and arc-flags
	// does not rebuild it).
	Hierarchy *ch.Hierarchy
}

// BuildIndex constructs the index for a method under cfg.
func BuildIndex(method Method, g *graph.Graph, cfg Config) (Index, error) {
	var ix Index
	switch method {
	case MethodDijkstra:
		ix = &dijkstraIndex{g: g, bi: dijkstra.NewBidirectional(g)}
	case MethodCH:
		h := cfg.Hierarchy
		if h == nil {
			h = ch.Build(g, cfg.CH)
		}
		ix = &chIndex{h: h}
	case MethodTNR:
		opts := cfg.TNR
		chBuild := cfg.fillHierarchy(g, &opts.Hierarchy)
		t, err := tnr.Build(g, opts)
		if err != nil {
			return nil, err
		}
		ix = &tnrIndex{t: t, chBuild: chBuild}
	case MethodSILC:
		opts := cfg.SILC
		chBuild := cfg.fillHierarchy(g, &opts.Hierarchy)
		s, err := silc.Build(g, opts)
		if err != nil {
			return nil, err
		}
		ix = &silcIndex{s: s, chBuild: chBuild}
	case MethodPCPD:
		opts := cfg.PCPD
		chBuild := cfg.fillHierarchy(g, &opts.Hierarchy)
		p, err := pcpd.Build(g, opts)
		if err != nil {
			return nil, err
		}
		ix = &pcpdIndex{p: p, chBuild: chBuild}
	case MethodALT:
		ix = &altIndex{a: alt.Build(g, cfg.ALT)}
	case MethodArcFlags:
		opts := cfg.ArcFlags
		chBuild := cfg.fillHierarchy(g, &opts.Hierarchy)
		ix = &arcFlagsIndex{a: arcflags.Build(g, opts), chBuild: chBuild}
	default:
		return nil, fmt.Errorf("core: unknown method %q", method)
	}
	if cfg.MaxIndexBytes > 0 && ix.Stats().IndexBytes > cfg.MaxIndexBytes {
		return nil, fmt.Errorf("%w: %s needs %d bytes, ceiling %d",
			ErrIndexTooLarge, method, ix.Stats().IndexBytes, cfg.MaxIndexBytes)
	}
	return ix, nil
}

// fillHierarchy sets *h, the Hierarchy option of TNR, SILC, PCPD or
// arc-flags, to the hierarchy that technique's preprocessing runs on: left
// alone when the options name one, else the shared cfg.Hierarchy, else one
// built here — and not left to the technique's Build, which knows no CH
// options: cfg.CH governs the hierarchy inside every technique as it does
// MethodCH's. It returns the build time of a hierarchy made here, which is
// part of the index's Stats().BuildTime.
func (cfg Config) fillHierarchy(g *graph.Graph, h **ch.Hierarchy) time.Duration {
	if *h == nil {
		*h = cfg.Hierarchy
	}
	if *h != nil {
		return 0
	}
	*h = ch.Build(g, cfg.CH)
	return (*h).BuildTime()
}

// Measurement is one timing row of a figure: a method's average query time
// on one query set.
type Measurement struct {
	Method  Method
	SetName string
	Queries int
	// AvgMicros is the mean per-query wall time in microseconds, the unit
	// of every running-time figure in the paper.
	AvgMicros float64
}

// MeasureDistance times distance queries over a query set.
func MeasureDistance(ix Index, qs workload.QuerySet) Measurement {
	start := time.Now()
	var sink int64
	for _, p := range qs.Pairs {
		sink += ix.Distance(p.S, p.T)
	}
	elapsed := time.Since(start)
	_ = sink
	return Measurement{
		Method:    ix.Method(),
		SetName:   qs.Name,
		Queries:   len(qs.Pairs),
		AvgMicros: micros(elapsed, len(qs.Pairs)),
	}
}

// MeasurePath times shortest-path queries over a query set.
func MeasurePath(ix Index, qs workload.QuerySet) Measurement {
	start := time.Now()
	var sink int
	for _, p := range qs.Pairs {
		path, _ := ix.ShortestPath(p.S, p.T)
		sink += len(path)
	}
	elapsed := time.Since(start)
	_ = sink
	return Measurement{
		Method:    ix.Method(),
		SetName:   qs.Name,
		Queries:   len(qs.Pairs),
		AvgMicros: micros(elapsed, len(qs.Pairs)),
	}
}

func micros(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Microseconds()) / float64(n)
}

// --- adapters ---

type dijkstraIndex struct {
	g  *graph.Graph
	bi *dijkstra.Bidirectional
}

func (ix *dijkstraIndex) Method() Method { return MethodDijkstra }
func (ix *dijkstraIndex) Distance(s, t graph.VertexID) int64 {
	return ix.bi.Query(s, t).Dist
}
func (ix *dijkstraIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.bi.ShortestPath(s, t)
}
func (ix *dijkstraIndex) NewSearcher() Searcher { return dijkstra.NewBidirectional(ix.g) }
func (ix *dijkstraIndex) Stats() Stats {
	return Stats{Method: MethodDijkstra}
}

type chIndex struct {
	h *ch.Hierarchy
	// s is the default searcher backing the Index's own query methods,
	// created lazily so loading an index allocates nothing per-vertex
	// until the single-goroutine convenience API is actually used (pools
	// and NewSearcher never touch it). Lazy without a lock is fine: the
	// Index's own query methods are single-goroutine by contract.
	s *ch.Searcher
	// backing is the flat container a mapped hierarchy's arrays alias
	// (LoadIndexFile); nil otherwise. See CloseIndex.
	backing *binio.FlatFile
}

func (ix *chIndex) def() *ch.Searcher {
	if ix.s == nil {
		ix.s = ix.h.NewSearcher()
	}
	return ix.s
}

func (ix *chIndex) closeBacking() error {
	if ix.backing == nil {
		return nil
	}
	return ix.backing.Close()
}

func (ix *chIndex) Method() Method { return MethodCH }
func (ix *chIndex) Distance(s, t graph.VertexID) int64 {
	return ix.def().Distance(s, t)
}
func (ix *chIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.def().ShortestPath(s, t)
}
func (ix *chIndex) NewSearcher() Searcher { return ix.h.NewSearcher() }
func (ix *chIndex) Stats() Stats {
	return Stats{Method: MethodCH, BuildTime: ix.h.BuildTime(), IndexBytes: ix.h.SizeBytes()}
}

// Hierarchy exposes the underlying CH for reuse by the harness.
func (ix *chIndex) Hierarchy() *ch.Hierarchy { return ix.h }

// HierarchyOf extracts the contraction hierarchy from a CH index built by
// BuildIndex, for sharing with TNR preprocessing.
func HierarchyOf(ix Index) *ch.Hierarchy {
	if c, ok := ix.(*chIndex); ok {
		return c.h
	}
	return nil
}

type tnrIndex struct {
	t       *tnr.Index
	chBuild time.Duration   // of the hierarchy BuildIndex built for t, part of Stats().BuildTime
	backing *binio.FlatFile // see chIndex.backing
}

func (ix *tnrIndex) closeBacking() error {
	if ix.backing == nil {
		return nil
	}
	return ix.backing.Close()
}

func (ix *tnrIndex) Method() Method { return MethodTNR }
func (ix *tnrIndex) Distance(s, t graph.VertexID) int64 {
	return ix.t.Distance(s, t)
}
func (ix *tnrIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.t.ShortestPath(s, t)
}
func (ix *tnrIndex) NewSearcher() Searcher { return ix.t.NewSearcher() }
func (ix *tnrIndex) Stats() Stats {
	return Stats{Method: MethodTNR, BuildTime: ix.chBuild + ix.t.BuildTime(), IndexBytes: ix.t.SizeBytes()}
}

// TNROf extracts the TNR index (for fallback statistics).
func TNROf(ix Index) *tnr.Index {
	if t, ok := ix.(*tnrIndex); ok {
		return t.t
	}
	return nil
}

// SILCOf extracts the SILC index from a SILC-method Index, exposing its
// extras (NearestK distance browsing); nil for other methods.
func SILCOf(ix Index) *silc.Index {
	if s, ok := ix.(*silcIndex); ok {
		return s.s
	}
	return nil
}

type silcIndex struct {
	s       *silc.Index
	chBuild time.Duration   // see tnrIndex.chBuild
	backing *binio.FlatFile // see chIndex.backing
}

func (ix *silcIndex) closeBacking() error {
	if ix.backing == nil {
		return nil
	}
	return ix.backing.Close()
}

func (ix *silcIndex) Method() Method { return MethodSILC }
func (ix *silcIndex) Distance(s, t graph.VertexID) int64 {
	return ix.s.Distance(s, t)
}
func (ix *silcIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.s.ShortestPath(s, t)
}

// SILC queries only read the immutable interval tables, so the index is
// its own concurrency-safe searcher.
func (ix *silcIndex) NewSearcher() Searcher { return ix.s }
func (ix *silcIndex) Stats() Stats {
	return Stats{Method: MethodSILC, BuildTime: ix.chBuild + ix.s.BuildTime(), IndexBytes: ix.s.SizeBytes()}
}

type pcpdIndex struct {
	p       *pcpd.Index
	chBuild time.Duration // see tnrIndex.chBuild
}

func (ix *pcpdIndex) Method() Method { return MethodPCPD }
func (ix *pcpdIndex) Distance(s, t graph.VertexID) int64 {
	return ix.p.Distance(s, t)
}
func (ix *pcpdIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.p.ShortestPath(s, t)
}

// PCPD queries only read the immutable decomposition tree, so the index is
// its own concurrency-safe searcher.
func (ix *pcpdIndex) NewSearcher() Searcher { return ix.p }
func (ix *pcpdIndex) Stats() Stats {
	return Stats{Method: MethodPCPD, BuildTime: ix.chBuild + ix.p.BuildTime(), IndexBytes: ix.p.SizeBytes()}
}

type altIndex struct{ a *alt.Index }

func (ix *altIndex) Method() Method { return MethodALT }
func (ix *altIndex) Distance(s, t graph.VertexID) int64 {
	return ix.a.Distance(s, t)
}
func (ix *altIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.a.ShortestPath(s, t)
}
func (ix *altIndex) NewSearcher() Searcher { return ix.a.NewSearcher() }
func (ix *altIndex) Stats() Stats {
	return Stats{Method: MethodALT, BuildTime: ix.a.BuildTime(), IndexBytes: ix.a.SizeBytes()}
}

type arcFlagsIndex struct {
	a       *arcflags.Index
	chBuild time.Duration // see tnrIndex.chBuild
}

func (ix *arcFlagsIndex) Method() Method { return MethodArcFlags }
func (ix *arcFlagsIndex) Distance(s, t graph.VertexID) int64 {
	return ix.a.Distance(s, t)
}
func (ix *arcFlagsIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return ix.a.ShortestPath(s, t)
}
func (ix *arcFlagsIndex) NewSearcher() Searcher { return ix.a.NewSearcher() }
func (ix *arcFlagsIndex) Stats() Stats {
	return Stats{Method: MethodArcFlags, BuildTime: ix.chBuild + ix.a.BuildTime(), IndexBytes: ix.a.SizeBytes()}
}
