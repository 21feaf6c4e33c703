// Package tnr implements Transit Node Routing (Bast et al.), the grid-based
// vertex-importance index of the paper's §3.3, including:
//
//   - the corrected access-node computation the paper proposes (§3.3
//     "Remarks" and Appendix B), which derives access nodes from true
//     shortest paths out of each cell rather than Bast et al.'s flawed
//     boundary sampling;
//   - the flawed computation itself (see flawed.go), kept for the Appendix
//     B reproduction that demonstrates incorrect query results;
//   - the 128x128-analogue single grid, the finer 256x256 analogue, and
//     the hybrid two-level grid of Appendix E.1;
//   - the fallback for local queries the paper recommends, contraction
//     hierarchies (§4.1 also evaluates bidirectional Dijkstra there).
//
// Grid terminology follows §3.3: for a cell C, the inner shell is the
// boundary of the 5x5 cell block centred at C and the outer shell the
// boundary of the 9x9 block. Shells are interpreted graph-topologically: an
// edge crosses a shell iff exactly one endpoint lies inside the block. The
// locality filter passes for cells more than 4 cells apart (Chebyshev), in
// which case Equation 1 answers the query from the precomputed tables.
//
// # Path queries
//
// A shortest-path query is the walk of §3.3: from the current vertex, whose
// distance to t is known, the next vertex is the first neighbor v with
// w(cur, v) + dist(v, t) = dist(cur, t), each dist(v, t) evaluated from
// the tables, until the walk enters t's locality and the fallback
// hierarchy streams the rest (pathiter.go). What the walk does not repeat
// is the half of Equation 1 that depends on t alone. With A(v) the access
// nodes of v's cell,
//
//	dist(v, t) = min over a in A(v) of d(v, a) + tail(a)
//	tail(a)    = min over b in A(t) of T[a][b] + d(b, t)
//
// and tail(a) is the same for every vertex of every hop of one walk, while
// neighboring cells share most of their access nodes. A Searcher keeps it
// in a tail memo: one slot per access node of the layer, generation-stamped
// so that opening a walk is one increment, filled with one |A(t)|-cell
// sweep the first time the walk meets a and read back afterwards (the sweep
// reads T[b][a], the table being symmetric, so one walk keeps to the rows
// of A(t)). There is one memo per layer — a hybrid walk that drops from the
// coarse to the fine grid keeps both — at 12 bytes per access node,
// allocated by the first walk that uses the layer; a searcher that answers
// only distance queries allocates none.
//
// An evaluation stops at the first access node whose candidate equals
// dist(cur, t) - w(cur, v). That value is a lower bound on dist(v, t) by
// the triangle inequality and every candidate is the length of a v-t walk,
// an upper bound, so an equal one is the minimum and the access nodes after
// it need no tail. The vertex the walk just left is not evaluated at all:
// weights are at least 1, so it cannot be closer to t. Neither changes
// which neighbor is chosen. The argument holds on exact tables only, which
// is why an index built with AccessFlawedBast answers path queries from the
// fallback.
//
// On NH (GridSize 32, 20.1 access nodes per non-empty cell) the 500 Q10
// pairs of workload seed 1 emit 57.79 vertices per path and read 4 740 table
// cells per path, 82.0 per emitted vertex — 256 tail fills for 81 neighbor
// evaluations; one full Equation 1 sweep per neighbor per hop read 39 060,
// 675.9 per vertex. LookupsLast reports the count per query and
// TestWalkWorkCount pins it.
package tnr

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"roadnet/internal/ch"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// AccessAlgorithm selects how per-cell access nodes are computed.
type AccessAlgorithm int

const (
	// AccessCorrected is the paper's corrected method: access nodes are
	// derived from the true shortest paths from each cell vertex to the
	// endpoints of outer-shell-crossing edges (§3.3 Remarks). Our variant
	// additionally covers tied shortest paths, so queries are exact even on
	// networks with many equal-length paths.
	AccessCorrected AccessAlgorithm = iota
	// AccessFlawedBast reproduces the defective method of Bast et al.
	// analysed in Appendix B. It samples the outer shell ring and misses
	// access nodes reachable only through edges that jump the ring, which
	// leads to incorrect query answers. For demonstration only.
	AccessFlawedBast
)

// innerRadius and outerRadius are the Chebyshev cell radii of the 5x5 inner
// and 9x9 outer blocks of §3.3.
const (
	innerRadius = 2
	outerRadius = 4
)

// Options configures Build.
type Options struct {
	// GridSize is the number of grid cells per axis. The paper uses 128
	// (and 256 for the fine grid). Our scaled datasets default to 32.
	GridSize int
	// Hybrid additionally builds a second grid of 2*GridSize cells per
	// axis and uses it for mid-range queries, as in Appendix E.1.
	Hybrid bool
	// Access selects the access-node computation. Default AccessCorrected.
	Access AccessAlgorithm
}

func (o Options) withDefaults() Options {
	if o.GridSize == 0 {
		o.GridSize = 32
	}
	return o
}

const invalidDist = math.MaxInt32

// Index is a built transit-node-routing index. The grid tables and the
// fallback hierarchy are immutable after Build, so one Index may be shared
// by any number of goroutines; per-query mutable state (the fallback CH
// searcher and the walk memos) lives in a Searcher — create one per
// goroutine with NewSearcher.
type Index struct {
	g    *graph.Graph
	opts Options

	coarse *layer
	fine   *layer // non-nil in hybrid mode

	hierarchy *ch.Hierarchy

	// tableN counts the queries answered from the precomputed tables and
	// fallbackN those answered by the fallback hierarchy, across every
	// searcher over this index (see QueryCounts). One atomic add per query
	// is noise next to even a table lookup's O(|AN|²) work.
	tableN, fallbackN atomic.Int64
}

// QueryCounts reports how queries over this index were answered, summed
// across all searchers: table from the precomputed transit-node tables,
// fallback by the hierarchy. Safe for concurrent use; the ratio
// fallback/(table+fallback) is the live analogue of the Figure 9/11
// locality analysis.
func (ix *Index) QueryCounts() (table, fallback int64) {
	return ix.tableN.Load(), ix.fallbackN.Load()
}

// Searcher is a reusable query context over an Index: it owns the mutable
// fallback search state, a CH searcher. It is not safe for concurrent use;
// create one per goroutine.
type Searcher struct {
	ix       *Index
	chSearch *ch.Searcher

	// lookups counts the pair-table cells the current query has read; see
	// LookupsLast. countTable and countFallback, which open every query,
	// reset it.
	lookups int

	// tgt is the target operand of a Distance sweep. walk is the lazy
	// table-walk iterator handed out by OpenPath and memo its per-layer
	// tail memos (coarse, fine), allocated by the first walk that uses the
	// layer.
	tgt  endpointAccess
	walk tableWalkIter
	memo [2]tailMemo
}

// LookupsLast returns the number of pair-table cells the last query read:
// |A(s)|·|A(t)| for a distance answered from the tables, the tail fills of
// a path walk (|A(t)| cells per access node met, see pathiter.go), and 0
// for a query the fallback answered. It is TNR's machine-independent cost
// measure, next to SettledLast on the searching techniques.
func (sr *Searcher) LookupsLast() int { return sr.lookups }

// countTable records one query answered from the precomputed tables.
func (sr *Searcher) countTable() {
	sr.lookups = 0
	sr.ix.tableN.Add(1)
}

// countFallback records one query answered by the fallback hierarchy.
func (sr *Searcher) countFallback() {
	sr.lookups = 0
	sr.ix.fallbackN.Add(1)
}

// NewSearcher returns a fresh query context sharing ix's immutable tables.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, chSearch: ix.hierarchy.NewSearcher()}
}

// layer is one grid level of the index.
type layer struct {
	grid   geom.Grid
	cellOf []int32 // vertex -> cell index

	// anList is the distinct set of access nodes of this layer; cellAN maps
	// a cell to indices into anList.
	anList []graph.VertexID
	cellAN [][]int32

	// vaDist[v][i] is dist(v, anList[cellAN[cellOf[v]][i]]).
	vaDist [][]int32

	// table is the dense access-node pair table (coarse layer):
	// table[i*len(anList)+j] = dist(anList[i], anList[j]).
	table []int32

	// sparse is the per-source sparse pair table (fine layer of a hybrid):
	// sparsePartner[i] lists target access-node indices (sorted) and
	// sparseDist[i] the matching distances.
	sparsePartner [][]int32
	sparseDist    [][]int32
}

func (l *layer) cellCoords(cellIdx int32) (col, row int) {
	return int(cellIdx) % l.grid.Cols, int(cellIdx) / l.grid.Cols
}

// localityPasses reports whether the layer's tables can answer a query
// between the cells of s and t: the cells must lie beyond each other's
// outer shells.
func (l *layer) localityPasses(s, t graph.VertexID) bool {
	cs, ct := l.cellOf[s], l.cellOf[t]
	sc, sr := l.cellCoords(cs)
	tc, tr := l.cellCoords(ct)
	return geom.ChebyshevCellDist(sc, sr, tc, tr) > outerRadius
}

// endpointAccess is one endpoint's compacted Equation 1 operand on one grid
// layer: per access node b of its cell with a finite vertex-to-access
// distance, where b's row of the pair table starts (dense layer) or b
// itself (sparse layer), and that distance widened to int64 once.
type endpointAccess struct {
	row []int
	d   []int64
}

// set makes ea the operand of v on l, reusing its capacity.
func (ea *endpointAccess) set(l *layer, v graph.VertexID) {
	ans, va := l.cellAN[l.cellOf[v]], l.vaDist[v]
	ea.row, ea.d = slices.Grow(ea.row[:0], len(ans)), slices.Grow(ea.d[:0], len(ans))
	stride := 1
	if l.table != nil {
		stride = len(l.anList)
	}
	for i, b := range ans {
		if va[i] != invalidDist {
			ea.row = append(ea.row, int(b)*stride)
			ea.d = append(ea.d, int64(va[i]))
		}
	}
}

// minPlus is the inner loop of Equation 1, the only code that reads a pair
// table: min over op's access nodes b of T[b][a] + d(b, ·), Infinity when
// no b reaches a. It reads column a of the rows of op — T is symmetric, the
// graph being undirected (TestPairTablesSymmetric) — so a caller that
// sweeps many a against one op, a distance query over A(s) or a path walk
// over every access node it meets, stays inside the same |op| rows.
func (l *layer) minPlus(a int32, op endpointAccess) int64 {
	best := graph.Infinity
	if l.table != nil {
		col := l.table[a:]
		for j, row := range op.row {
			if mid := col[row]; mid != invalidDist {
				best = min(best, int64(mid)+op.d[j])
			}
		}
		return best
	}
	for j, b := range op.row {
		if k, ok := slices.BinarySearch(l.sparsePartner[b], a); ok {
			best = min(best, int64(l.sparseDist[b][k])+op.d[j])
		}
	}
	return best
}

// equation1 evaluates Equation 1 for s against the operand of t on l:
// min over s's access nodes a of d(s, a) + minPlus(a, tgt). It must only be
// called when l.localityPasses(s, t).
func (sr *Searcher) equation1(l *layer, s graph.VertexID, tgt endpointAccess) int64 {
	va := l.vaDist[s]
	best := graph.Infinity
	for i, a := range l.cellAN[l.cellOf[s]] {
		if va[i] != invalidDist {
			sr.lookups += len(tgt.row)
			best = min(best, int64(va[i])+l.minPlus(a, tgt))
		}
	}
	return best
}

// Build constructs a TNR index over g on h, a contraction hierarchy of g:
// preprocessing runs its searches on h, and local queries fall back to it.
func Build(g *graph.Graph, h *ch.Hierarchy, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("tnr: empty graph")
	}
	ix := &Index{
		g:         g,
		opts:      opts,
		hierarchy: h,
	}
	var err error
	ix.coarse, err = buildLayer(g, h, opts.GridSize, opts.Access, true)
	if err != nil {
		return nil, err
	}
	if opts.Hybrid {
		ix.fine, err = buildLayer(g, h, opts.GridSize*2, opts.Access, false)
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Distance answers a distance query (§3.3): Equation 1 over the coarse
// tables when the cells are far apart, the fine tables (hybrid mode) for
// mid-range queries, and the fallback hierarchy otherwise.
func (sr *Searcher) Distance(s, t graph.VertexID) int64 {
	d, _ := sr.DistanceContext(context.Background(), s, t)
	return d
}

// DistanceContext is Distance with cancellation: an already-cancelled
// context aborts before any work, table answers then run to completion
// (O(|AN|²) lookups, bounded), and fallback searches poll ctx at bounded
// intervals, aborting with its error.
func (sr *Searcher) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	if l := sr.ix.tableLayer(s, t); l != nil {
		sr.countTable()
		sr.tgt.set(l, t)
		return sr.equation1(l, s, sr.tgt), nil
	}
	sr.countFallback()
	return sr.chSearch.DistanceContext(ctx, s, t)
}

// tableLayer returns the layer whose tables answer the query — the coarse
// grid when s and t lie beyond each other's outer shells on it, else the
// fine grid of a hybrid index on the same test — or nil for a local query.
func (ix *Index) tableLayer(s, t graph.VertexID) *layer {
	if ix.coarse.localityPasses(s, t) {
		return ix.coarse
	}
	if ix.fine != nil && ix.fine.localityPasses(s, t) {
		return ix.fine
	}
	return nil
}

// CanAnswerFromTables reports whether the query would be answered from the
// precomputed tables (used by the experiment harness to split timings).
func (ix *Index) CanAnswerFromTables(s, t graph.VertexID) bool {
	return ix.tableLayer(s, t) != nil
}

// Access returns the access-node computation the index was built with.
func (ix *Index) Access() AccessAlgorithm { return ix.opts.Access }

// Hierarchy returns the contraction hierarchy used for preprocessing and
// for local queries.
func (ix *Index) Hierarchy() *ch.Hierarchy { return ix.hierarchy }

// MeanAccessNodesPerCell reports the average size of the per-cell access
// node sets of the coarse grid (the paper observes roughly 10 on all
// datasets).
func (ix *Index) MeanAccessNodesPerCell() float64 {
	total, cells := 0, 0
	for _, ans := range ix.coarse.cellAN {
		if len(ans) > 0 {
			total += len(ans)
			cells++
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(total) / float64(cells)
}

// SizeBytes reports the memory footprint of the TNR structures: the
// vertex-to-access-node distances (the paper's I2), the access-node pair
// tables (I1), the per-cell access lists, plus the fallback hierarchy
// (Appendix E.1 justifies counting it).
func (ix *Index) SizeBytes() int64 {
	size := ix.coarse.sizeBytes() + ix.hierarchy.SizeBytes()
	if ix.fine != nil {
		size += ix.fine.sizeBytes()
	}
	return size
}

func (l *layer) sizeBytes() int64 {
	var size int64
	size += int64(len(l.cellOf)) * 4
	size += int64(len(l.anList)) * 4
	for _, ans := range l.cellAN {
		size += int64(len(ans)) * 4
	}
	for _, d := range l.vaDist {
		size += int64(len(d)) * 4
	}
	size += int64(len(l.table)) * 4
	for i := range l.sparsePartner {
		size += int64(len(l.sparsePartner[i])) * 8
	}
	return size
}
