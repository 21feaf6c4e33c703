package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"roadnet/internal/alt"
	"roadnet/internal/arcflags"
	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
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
// Index itself run on one default Searcher, created by the first such call,
// and are NOT safe for concurrent use. For concurrent serving, call
// NewSearcher once per goroutine (or use a Pool) and query through the
// Searchers.
type Index interface {
	// Method returns the technique's identifier.
	Method() Method
	// Distance answers a distance query (§2), returning graph.Infinity for
	// unreachable pairs.
	Distance(s, t graph.VertexID) int64
	// ShortestPath answers a shortest path query (§2), returning the
	// vertex sequence and the path length, or (nil, graph.Infinity). It
	// drains the default searcher's OpenPath into a caller-owned slice,
	// the one place a path becomes a slice.
	ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64)
	// NewSearcher returns a fresh query context sharing the index's
	// immutable data. Searchers from distinct NewSearcher calls may be
	// used concurrently; a single Searcher may not.
	NewSearcher() Searcher
	// Stats reports preprocessing time and space.
	Stats() Stats
}

// Searcher is a per-goroutine query context over a shared Index: it owns
// all mutable search state (distance labels, generation counters, heaps,
// path buffers), while the index data it reads is immutable. It answers
// the paper's two queries (§2), a distance and a shortest path, the path
// one way only: streamed through OpenPath. A Searcher is reusable across
// any number of queries with zero steady-state allocations on the distance
// hot path and on a drained path, but is not safe for concurrent use —
// create one per goroutine, or hand them out through a Pool.
//
// Cancellation contract: DistanceContext and OpenPath (and the iterators
// it returns) poll ctx at bounded intervals (every cancel.Interval settled
// vertices, path hops, or recursion steps — whichever unit the technique's
// query loop advances in) and abort with ctx's error. Every technique
// polls, including the bidirectional-Dijkstra fallback inside TNR, so a
// cancelled request stops burning CPU within a bounded number of steps no
// matter which index serves it. A query issued on an already-cancelled
// context aborts before doing any work, and an aborted Searcher remains
// valid for reuse.
type Searcher interface {
	// Distance answers a distance query, returning graph.Infinity for
	// unreachable pairs.
	Distance(s, t graph.VertexID) int64
	// DistanceContext is Distance with cancellation: it polls ctx at
	// bounded intervals and aborts with its error.
	DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error)
	// OpenPath answers a shortest path query with the path streamed. It
	// reports the path length up front (streaming consumers emit it before
	// the vertices) and returns:
	//
	//   - (nil, Infinity, err) when the underlying search was cancelled;
	//   - (nil, Infinity, nil) when t is unreachable from s;
	//   - (it, d, nil) otherwise, with it yielding the full path s..t.
	//
	// CH (shortcut unpacking) and TNR (the table walk) produce the vertices
	// lazily; the other techniques assemble the path in searcher-owned
	// scratch first. The iterator reads the searcher's per-query state: it
	// is invalidated by the searcher's next query and must be drained (or
	// abandoned) before the searcher is reused or returned to a Pool.
	// Iterators poll ctx at bounded intervals while expanding, surfacing
	// cancellation through Err after a short Next()=false tail.
	OpenPath(ctx context.Context, s, t graph.VertexID) (PathIterator, int64, error)
}

// PathIterator streams the vertices of one shortest path in order. It is
// defined in the leaf package internal/graph (so technique packages can
// implement it without importing core) and re-exported here as the name the
// serving layers use.
type PathIterator = graph.PathIterator

// BatchDistancer is the per-technique batch acceleration contract: a
// Searcher additionally implements it when the technique can answer a full
// sources×targets distance matrix faster than |S|×|T| independent
// point-to-point queries — measurably so, against the per-pair loop of
// Pool.BatchDistance it displaces. SILC implements it with target-wise
// walks that memoize shared path suffixes (2.0–3.5× on NH,
// BenchmarkSILCBatchDistance against BenchmarkSILCPerPair); CH batches are
// routed to the hierarchy's bucket many-to-many algorithm by
// Pool.BatchDistance before this interface is consulted. A TNR sweep that
// hoisted each target's access-node operand out of the pair loop did not
// resolve against that loop and was removed.
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

// ErrFlawedTNR is returned by BuildIndex and the loaders for a TNR index
// whose access nodes are not tnr.AccessCorrected: Bast et al.'s flawed
// computation answers some distances wrongly (Appendix B), so no serving
// configuration may select it. The Appendix B experiment builds it with
// tnr.Build directly.
var ErrFlawedTNR = errors.New("core: TNR with flawed access nodes cannot serve queries")

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
	var (
		tech    technique
		chBuild time.Duration
		err     error
	)
	switch method {
	case MethodDijkstra:
	case MethodCH:
		h := cfg.Hierarchy
		if h == nil {
			h, err = ch.Build(g, cfg.CH)
		}
		tech = h
	case MethodTNR:
		opts := cfg.TNR
		if opts.Access != tnr.AccessCorrected {
			return nil, ErrFlawedTNR
		}
		if chBuild, err = cfg.fillHierarchy(g, &opts.Hierarchy); err == nil {
			tech, err = tnr.Build(g, opts)
		}
	case MethodSILC:
		opts := cfg.SILC
		if chBuild, err = cfg.fillHierarchy(g, &opts.Hierarchy); err == nil {
			tech, err = silc.Build(g, opts)
		}
	case MethodPCPD:
		opts := cfg.PCPD
		if chBuild, err = cfg.fillHierarchy(g, &opts.Hierarchy); err == nil {
			tech, err = pcpd.Build(g, opts)
		}
	case MethodALT:
		tech = alt.Build(g, cfg.ALT)
	case MethodArcFlags:
		opts := cfg.ArcFlags
		if chBuild, err = cfg.fillHierarchy(g, &opts.Hierarchy); err == nil {
			tech, err = arcflags.Build(g, opts)
		}
	default:
		return nil, fmt.Errorf("core: unknown method %q", method)
	}
	if err != nil {
		return nil, err
	}
	ix := newIndex(g, tech)
	ix.chBuild = chBuild
	if size := ix.Stats().IndexBytes; cfg.MaxIndexBytes > 0 && size > cfg.MaxIndexBytes {
		return nil, fmt.Errorf("%w: %s needs %d bytes, ceiling %d",
			ErrIndexTooLarge, method, size, cfg.MaxIndexBytes)
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
func (cfg Config) fillHierarchy(g *graph.Graph, h **ch.Hierarchy) (time.Duration, error) {
	if *h == nil {
		*h = cfg.Hierarchy
	}
	if *h != nil {
		return 0, nil
	}
	built, err := ch.Build(g, cfg.CH)
	if err != nil {
		return 0, err
	}
	*h = built
	return built.BuildTime(), nil
}

// technique is what every technique's own index value (*ch.Hierarchy,
// *tnr.Index, *silc.Index, *pcpd.Index, *alt.Index, *arcflags.Index)
// reports about itself.
type technique interface {
	BuildTime() time.Duration
	SizeBytes() int64
}

// index is the one Index implementation: a technique's index value, the
// way to make searchers over it, and the one default searcher behind the
// Index's own Distance and ShortestPath.
type index struct {
	method Method
	// tech is the technique's index value, nil for the baseline, which has
	// none. HierarchyOf, TNROf and SaveIndex unwrap it.
	tech        technique
	newSearcher func() Searcher
	// chBuild is the build time of a hierarchy BuildIndex made for tech's
	// preprocessing, part of Stats().BuildTime.
	chBuild time.Duration
	// backing is the flat container (*binio.FlatFile) a loaded index's
	// arrays alias (fromFlat); nil for a built one. See CloseIndex.
	backing io.Closer
	// def is created by the first Distance or ShortestPath call, so building
	// or loading an index allocates no per-vertex search state (pools and
	// NewSearcher never touch it), and pathBuf is the scratch ShortestPath
	// drains def's paths into. Lazy without a lock is fine: the Index's own
	// query methods are single-goroutine by contract.
	def     Searcher
	pathBuf []graph.VertexID
}

// newIndex wraps tech, a technique's index value over g, or the baseline
// when tech is nil.
func newIndex(g *graph.Graph, tech technique) *index {
	ix := &index{tech: tech}
	switch t := tech.(type) {
	case nil:
		ix.method = MethodDijkstra
		ix.newSearcher = func() Searcher { return dijkstra.NewBidirectional(g) }
	case *ch.Hierarchy:
		ix.method = MethodCH
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	case *tnr.Index:
		ix.method = MethodTNR
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	case *silc.Index:
		ix.method = MethodSILC
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	case *pcpd.Index:
		ix.method = MethodPCPD
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	case *alt.Index:
		ix.method = MethodALT
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	case *arcflags.Index:
		ix.method = MethodArcFlags
		ix.newSearcher = func() Searcher { return t.NewSearcher() }
	default:
		panic(fmt.Sprintf("core: no method for %T", tech))
	}
	return ix
}

func (ix *index) Method() Method        { return ix.method }
func (ix *index) NewSearcher() Searcher { return ix.newSearcher() }

func (ix *index) defaultSearcher() Searcher {
	if ix.def == nil {
		ix.def = ix.newSearcher()
	}
	return ix.def
}

func (ix *index) Distance(s, t graph.VertexID) int64 { return ix.defaultSearcher().Distance(s, t) }

// ShortestPath drains the default searcher's OpenPath into the index's
// scratch buffer and returns an exact-size copy: one allocation per
// reachable query, whatever the technique.
func (ix *index) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	it, d, err := ix.defaultSearcher().OpenPath(context.Background(), s, t)
	if err != nil || it == nil {
		return nil, graph.Infinity
	}
	buf, err := graph.AppendPath(ix.pathBuf[:0], it)
	if err != nil {
		return nil, graph.Infinity
	}
	ix.pathBuf = buf
	path := make([]graph.VertexID, len(buf))
	copy(path, buf)
	return path, d
}

func (ix *index) Stats() Stats {
	st := Stats{Method: ix.method}
	if ix.tech != nil {
		st.BuildTime = ix.chBuild + ix.tech.BuildTime()
		st.IndexBytes = ix.tech.SizeBytes()
	}
	return st
}

// techOf returns the technique value inside an Index made by this package,
// as a T, or the zero T (nil) when ix wraps something else.
func techOf[T technique](ix Index) T {
	var zero T
	if in, ok := ix.(*index); ok {
		if t, ok := in.tech.(T); ok {
			return t
		}
	}
	return zero
}

// HierarchyOf extracts the contraction hierarchy from a CH index, for
// sharing with the preprocessing of the other techniques; nil for other
// methods.
func HierarchyOf(ix Index) *ch.Hierarchy { return techOf[*ch.Hierarchy](ix) }

// TNROf extracts the TNR index (for fallback statistics); nil for other
// methods.
func TNROf(ix Index) *tnr.Index { return techOf[*tnr.Index](ix) }
