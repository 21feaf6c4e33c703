// Package silc implements Spatially Induced Linkage Cognizance (Samet et
// al., SIGMOD 2008), the spatial-coherence index of the paper's §3.4.
//
// Preprocessing computes, for every vertex v, the partition of V \ {v} into
// equivalence classes by the first hop of the shortest path leaving v, then
// compresses each partition into a colored region quadtree stored as
// intervals of a Z-order (Morton) curve (Appendix D): cells are split until
// every cell holds vertices of a single class, and the resulting aligned
// squares become contiguous Morton-code intervals kept in a sorted array
// searched binarily at query time.
//
// A shortest-path query walks the path hop by hop — O(k log n) for a path
// of k edges — and a distance query computes the path and returns its
// length, exactly as the paper evaluates it.
//
// Which first hop a source records where several shortest paths exist is
// the canonical-first-hop rule of internal/ch/sweep.go, a function of the
// graph alone. Build colors source s by hop[t*n+s] of the hierarchy's
// next-hop matrix (ch.Hierarchy.NextHopMatrix), s's first hop toward each
// target t, so the index depends neither on the hierarchy it is given nor on
// GOMAXPROCS, the number of goroutines it builds on.
//
// # Build cost
//
// Build holds the n² B next-hop matrix beside the index until it returns,
// and each goroutine gathers the rows of 64 sources at a time from it into
// 64n B of its own. Measured on 2 cores, peak process memory (graph and
// hierarchy included) and build time were 93 MB and 2.7 s on CO
// (n = 9001), and 519 MB and 15.6 s on FL (n = 22158), the largest preset
// the experiments build SILC on. Build refuses a graph of more than MaxN
// vertices before it allocates anything.
package silc

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
)

// noHop marks targets with no first hop (unreachable vertices and the
// source itself).
const noHop = ch.NoHop

// maxDegree is the largest vertex degree SILC's one-byte color encoding
// supports; road networks are degree-bounded far below this (§2).
const maxDegree = noHop

// MaxN guards against graphs whose n² B next-hop matrix would not fit in
// memory: 625 MB at the bound, which FL, the largest preset the paper's
// SILC rule admits, stays below.
const MaxN = 25000

// quadBits is the quadtree resolution per axis, the finest a Morton code
// of 32 bits holds.
const quadBits = 16

// Index is a built SILC index.
type Index struct {
	g    *graph.Graph
	norm geom.Normalizer

	// Per-source interval tables: starts[v] holds the ascending Morton
	// codes at which a new region begins, colors[v] the first-hop adjacency
	// slot of each region.
	starts [][]uint32
	colors [][]uint8

	// Exceptions list, per source, the vertices whose Morton cell is shared
	// with a different-colored vertex (coordinate collisions); they override
	// the interval lookup. Source v's run is excTarget/excColor[excOff[v]:
	// excOff[v+1]], (target, color) pairs sorted by target and searched
	// binarily in exceptionColor — the form Build emits and files store.
	excOff    []int64
	excTarget []int32
	excColor  []uint8

	// code[v] is the Morton code of v.
	code []uint32

	intervals int64
}

// Build constructs the SILC index for g from the canonical first hops of
// h, a contraction hierarchy of g (the all-pairs preprocessing of §3.4).
func Build(g *graph.Graph, h *ch.Hierarchy) (*Index, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("silc: empty graph")
	}
	if n > MaxN {
		return nil, fmt.Errorf("silc: graph has %d vertices, above the guard of %d", n, MaxN)
	}
	if d := g.MaxDegree(); d >= maxDegree {
		return nil, fmt.Errorf("silc: max degree %d exceeds supported %d", d, maxDegree)
	}

	ix := &Index{
		g:      g,
		norm:   geom.NewNormalizer(g.Bounds(), quadBits),
		starts: make([][]uint32, n),
		colors: make([][]uint8, n),
		code:   make([]uint32, n),
	}
	for v := 0; v < n; v++ {
		ix.code[v] = uint32(ix.norm.Code(g.Coord(graph.VertexID(v))))
	}
	// Vertices sorted by Morton code, shared by every per-source build.
	order := geom.MortonOrder(ix.code)

	// Per-source exception rows, flattened into the index once all are in.
	excTarget := make([][]int32, n)
	excColor := make([][]uint8, n)

	workers := runtime.GOMAXPROCS(0)
	hop := h.NextHopMatrix(workers)
	par.Each(workers, (n+blockSize-1)/blockSize, func(int) func(int) {
		b := &sourceBuilder{ix: ix, order: order, excTarget: excTarget, excColor: excColor}
		rows := make([]uint8, blockSize*n)
		return func(blk int) {
			// Source lo+i's first hop toward t is hop[t*n+lo+i].
			lo := blk * blockSize
			w := min(blockSize, n-lo)
			for t := 0; t < n; t++ {
				for i, c := range hop[t*n+lo : t*n+lo+w] {
					rows[i*n+t] = c
				}
			}
			for i := 0; i < w; i++ {
				b.hop = rows[i*n : (i+1)*n]
				b.build(graph.VertexID(lo + i))
			}
		}
	})
	for v := 0; v < n; v++ {
		ix.intervals += int64(len(ix.starts[v]))
	}
	ix.excOff, ix.excTarget = binio.Flatten(excTarget)
	_, ix.excColor = binio.Flatten(excColor)
	return ix, nil
}

// blockSize is the number of sources whose rows a goroutine gathers at
// once, 64 adjacent bytes of the next-hop matrix per target.
const blockSize = 64

// sourceBuilder holds the per-goroutine scratch for building one source's
// interval table.
type sourceBuilder struct {
	ix    *Index
	order []graph.VertexID
	hop   []uint8 // first-hop slot per target for the current source

	starts []uint32
	colors []uint8
	exc    []graph.VertexID // exception targets of the current source

	// Build's per-source exception rows; each source writes only its own.
	excTarget [][]int32
	excColor  [][]uint8
}

// build compresses the first-hop coloring b.hop of source v.
func (b *sourceBuilder) build(v graph.VertexID) {
	b.starts = b.starts[:0]
	b.colors = b.colors[:0]
	b.exc = b.exc[:0]
	b.rec(v, 0, uint64(b.ix.norm.CodeSpaceSize()), 0, len(b.order))

	b.ix.starts[v] = append([]uint32(nil), b.starts...)
	b.ix.colors[v] = append([]uint8(nil), b.colors...)
	if len(b.exc) > 0 {
		// Each vertex lies in one leaf cell, so targets are distinct.
		slices.Sort(b.exc)
		b.excTarget[v] = slices.Clone(b.exc)
		b.excColor[v] = make([]uint8, len(b.exc))
		for i, u := range b.exc {
			b.excColor[v][i] = b.hop[u]
		}
	}
}

// emit appends a region start, merging adjacent same-color regions.
func (b *sourceBuilder) emit(code uint64, color uint8) {
	if len(b.colors) > 0 && b.colors[len(b.colors)-1] == color {
		return
	}
	b.starts = append(b.starts, uint32(code))
	b.colors = append(b.colors, color)
}

// rec performs the quadtree subdivision of the Morton code range
// [codeLo, codeLo+codeSpan) containing the sorted vertices
// order[idxLo:idxHi], emitting maximal single-color intervals. The source
// vertex src acts as a wildcard that matches any color.
func (b *sourceBuilder) rec(src graph.VertexID, codeLo, codeSpan uint64, idxLo, idxHi int) {
	if idxLo >= idxHi {
		return
	}
	// Single-color check (ignoring the source).
	color := uint8(noHop)
	uniform := true
	hasColor := false
	for i := idxLo; i < idxHi; i++ {
		u := b.order[i]
		if u == src {
			continue
		}
		c := b.hop[u]
		if !hasColor {
			color = c
			hasColor = true
		} else if c != color {
			uniform = false
			break
		}
	}
	if !hasColor {
		return // only the source lives here
	}
	if uniform {
		b.emit(codeLo, color)
		return
	}
	if codeSpan <= 1 {
		// Coordinate collision: distinct vertices share one cell with
		// different colors. Emit the first color and record the others as
		// exceptions.
		b.emit(codeLo, color)
		for i := idxLo; i < idxHi; i++ {
			u := b.order[i]
			if u != src && b.hop[u] != color {
				b.exc = append(b.exc, u)
			}
		}
		return
	}
	quarter := codeSpan / 4
	at := idxLo
	for q := uint64(0); q < 4; q++ {
		qLo := codeLo + q*quarter
		qHi := qLo + quarter
		end := at + sort.Search(idxHi-at, func(k int) bool {
			return uint64(b.ix.code[b.order[at+k]]) >= qHi
		})
		b.rec(src, qLo, quarter, at, end)
		at = end
	}
}

// exceptionColor resolves a coordinate-collision override for the pair
// (cur, target) by binary search over cur's sorted exception run.
func (ix *Index) exceptionColor(cur, target graph.VertexID) (uint8, bool) {
	lo, hi := int(ix.excOff[cur]), int(ix.excOff[cur+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.excTarget[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(ix.excOff[cur+1]) && ix.excTarget[lo] == target {
		return ix.excColor[lo], true
	}
	return 0, false
}

// lookup returns the first-hop adjacency slot from cur toward target.
func (ix *Index) lookup(cur, target graph.VertexID) uint8 {
	if c, ok := ix.exceptionColor(cur, target); ok {
		return c
	}
	starts := ix.starts[cur]
	if len(starts) == 0 {
		return noHop
	}
	code := ix.code[target]
	// Find the last region starting at or before code.
	i := sort.Search(len(starts), func(k int) bool { return starts[k] > code })
	if i == 0 {
		return noHop
	}
	return ix.colors[cur][i-1]
}

// NumIntervals returns the total number of stored Morton intervals; the
// paper's O(n sqrt n) space bound is in these units.
func (ix *Index) NumIntervals() int64 { return ix.intervals }

// SizeBytes reports the index footprint: 5 bytes per interval (4-byte
// start + 1-byte color) plus the per-source slice headers, and 5 bytes per
// exception plus the run offsets.
func (ix *Index) SizeBytes() int64 {
	var size int64
	for v := range ix.starts {
		size += int64(len(ix.starts[v]))*5 + 48
	}
	size += int64(len(ix.excTarget)) * 5
	size += int64(len(ix.excOff)) * 8
	size += int64(len(ix.code)) * 4
	return size
}
