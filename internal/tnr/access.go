package tnr

import (
	"fmt"
	"runtime"
	"sort"

	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
)

// accessRule computes the access nodes of one cell, in ascending order,
// from the cell's vertices and its Vout set (outerShellVertices):
// correctedAccessNodes for Build, flawedAccessNodes for BuildFlawed.
type accessRule func(w *accessWorker, cellIdx int32, verts, vout []graph.VertexID) []graph.VertexID

// buildLayer constructs one grid level: cell assignment, outer-shell vertex
// sets, per-cell access nodes by rule, vertex-to-access-node distances, and
// the access-node pair table (dense for the coarse grid, distance-limited
// sparse for the fine grid of a hybrid index).
func buildLayer(g *graph.Graph, h *ch.Hierarchy, gridSize int, rule accessRule, dense bool) (*layer, error) {
	n := g.NumVertices()
	l := &layer{
		grid:   geom.NewGrid(g.Bounds(), gridSize, gridSize),
		cellOf: make([]int32, n),
		cellAN: make([][]int32, gridSize*gridSize),
		vaDist: make([][]int32, n),
	}
	cellVerts := make([][]graph.VertexID, l.grid.NumCells())
	for v := 0; v < n; v++ {
		c, r := l.grid.CellOf(g.Coord(graph.VertexID(v)))
		idx := int32(l.grid.CellIndex(c, r))
		l.cellOf[v] = idx
		cellVerts[idx] = append(cellVerts[idx], graph.VertexID(v))
	}

	vout := outerShellVertices(g, l)

	// Per-cell access-node vertex lists, computed in parallel.
	cellAccess := make([][]graph.VertexID, l.grid.NumCells())
	workers := make([]*accessWorker, runtime.GOMAXPROCS(0))
	par.Each(len(workers), l.grid.NumCells(), func(w int) func(int) {
		worker := newAccessWorker(g, h, l, cellVerts)
		workers[w] = worker
		return func(cell int) {
			if len(cellVerts[cell]) == 0 || len(vout[cell]) == 0 {
				return
			}
			cellAccess[cell] = rule(worker, int32(cell), cellVerts[cell], vout[cell])
			// Distances from every cell vertex to every access node.
			worker.fillVertexDistances(cellVerts[cell], cellAccess[cell], l.vaDist)
		}
	})

	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
	}

	// Assemble the distinct global access-node list and per-cell indices.
	anIndex := make(map[graph.VertexID]int32)
	for cell, nodes := range cellAccess {
		idxs := make([]int32, len(nodes))
		for i, a := range nodes {
			gi, ok := anIndex[a]
			if !ok {
				gi = int32(len(l.anList))
				anIndex[a] = gi
				l.anList = append(l.anList, a)
			}
			idxs[i] = gi
		}
		l.cellAN[cell] = idxs
	}

	if err := fillPairTable(l, h, dense); err != nil {
		return nil, err
	}
	return l, nil
}

// pruneDominated drops, per vertex v, every access node a of v's cell that
// another access node a' of the cell dominates — d(v, a') + T[a'][a] =
// d(v, a), so no route through a is shorter than the one through a' — by
// setting vaDist[v] of a to invalidDist, which Equation 1 and the walk
// skip. Every comparison reads the unpruned row, so all dominated nodes go
// at once; on the sparse layer a pair without a cell dominates nothing.
// The package comment argues why every distance stays exact.
func pruneDominated(l *layer) {
	par.Each(runtime.GOMAXPROCS(0), len(l.vaDist), func(int) func(int) {
		var row []int32
		return func(v int) {
			ans, va := l.cellAN[l.cellOf[v]], l.vaDist[v]
			row = append(row[:0], va...)
			for i, a := range ans {
				if row[i] == invalidDist {
					continue
				}
				for j, b := range ans {
					if j == i || row[j] == invalidDist {
						continue
					}
					if mid := l.pair(b, a); mid != invalidDist && int64(row[j])+int64(mid) == int64(row[i]) {
						va[i] = invalidDist
						break
					}
				}
			}
		}
	})
}

// outerShellVertices returns, per cell C, the endpoints of the edges that
// cross the outer shell of C (exactly one endpoint inside the 9x9 block
// centred at C). This is the paper's Vout set.
func outerShellVertices(g *graph.Graph, l *layer) [][]graph.VertexID {
	vout := make([][]graph.VertexID, l.grid.NumCells())
	appendForCells := func(inCol, inRow, exCol, exRow int, u, v graph.VertexID) {
		// Cells C with the 9-block containing (inCol, inRow) but not
		// (exCol, exRow): C within Chebyshev 4 of the first, beyond 4 of
		// the second.
		for dr := -outerRadius; dr <= outerRadius; dr++ {
			for dc := -outerRadius; dc <= outerRadius; dc++ {
				c, r := inCol+dc, inRow+dr
				if c < 0 || c >= l.grid.Cols || r < 0 || r >= l.grid.Rows {
					continue
				}
				if geom.ChebyshevCellDist(c, r, exCol, exRow) <= outerRadius {
					continue
				}
				idx := l.grid.CellIndex(c, r)
				vout[idx] = append(vout[idx], u, v)
			}
		}
	}
	for _, e := range g.Edges() {
		uc, ur := l.grid.CellOf(g.Coord(e.U))
		vc, vr := l.grid.CellOf(g.Coord(e.V))
		if uc == vc && ur == vr {
			continue
		}
		appendForCells(uc, ur, vc, vr, e.U, e.V)
		appendForCells(vc, vr, uc, ur, e.U, e.V)
	}
	// Deduplicate per cell.
	for cell := range vout {
		vs := vout[cell]
		if len(vs) < 2 {
			continue
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		out := vs[:1]
		for _, v := range vs[1:] {
			if v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		vout[cell] = out
	}
	return vout
}

// accessWorker owns the per-goroutine scratch state of the access-node
// computation.
type accessWorker struct {
	g         *graph.Graph
	h         *ch.Hierarchy
	l         *layer
	cellVerts [][]graph.VertexID // the vertices of each cell, shared read-only
	ctx       *dijkstra.Context

	settled []uint32 // generation marks: vertex settled in current search
	reach   []uint32 // generation marks: vertex can reach Vout in the DAG
	gen     uint32
	stack   []graph.VertexID
	anSet   map[graph.VertexID]bool
	err     error // the first distance too long for a table cell, see narrow
}

func newAccessWorker(g *graph.Graph, h *ch.Hierarchy, l *layer, cellVerts [][]graph.VertexID) *accessWorker {
	n := g.NumVertices()
	return &accessWorker{
		g:         g,
		h:         h,
		l:         l,
		cellVerts: cellVerts,
		ctx:       dijkstra.NewContext(g),
		settled:   make([]uint32, n),
		reach:     make([]uint32, n),
		anSet:     make(map[graph.VertexID]bool),
	}
}

// chebToCell returns the Chebyshev distance between v's cell and cell.
func (w *accessWorker) chebToCell(v graph.VertexID, cellIdx int32) int {
	vc, vr := w.l.cellCoords(w.l.cellOf[v])
	cc, cr := w.l.cellCoords(cellIdx)
	return geom.ChebyshevCellDist(vc, vr, cc, cr)
}

// correctedAccessNodes implements the paper's corrected method (§3.3
// Remarks), strengthened to cover tied shortest paths: for each vertex v of
// the cell, a Dijkstra settles everything up to the farthest Vout vertex;
// the shortest-path DAG edges that cross the inner shell and can still
// reach Vout contribute both endpoints as access nodes.
func (w *accessWorker) correctedAccessNodes(cellIdx int32, verts, vout []graph.VertexID) []graph.VertexID {
	clear(w.anSet)
	for _, v := range verts {
		w.ctx.Run([]graph.VertexID{v}, dijkstra.Options{Targets: vout, SettleTies: true})
		w.gen++
		for _, u := range w.ctx.Settled() {
			w.settled[u] = w.gen
		}
		// Mark vertices that can reach a settled Vout vertex by walking the
		// shortest-path DAG backwards from the Vout seeds.
		w.stack = w.stack[:0]
		for _, u := range vout {
			if w.settled[u] == w.gen && w.reach[u] != w.gen {
				w.reach[u] = w.gen
				w.stack = append(w.stack, u)
			}
		}
		for len(w.stack) > 0 {
			y := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			dy := w.ctx.Dist(y)
			w.g.Neighbors(y, func(x graph.VertexID, wt graph.Weight, _ int32) bool {
				if w.settled[x] == w.gen && w.reach[x] != w.gen && w.ctx.Dist(x)+int64(wt) == dy {
					w.reach[x] = w.gen
					w.stack = append(w.stack, x)
				}
				return true
			})
		}
		// Collect inner-shell crossing DAG edges that reach Vout.
		for _, x := range w.ctx.Settled() {
			if w.chebToCell(x, cellIdx) > innerRadius {
				continue
			}
			dx := w.ctx.Dist(x)
			w.g.Neighbors(x, func(y graph.VertexID, wt graph.Weight, _ int32) bool {
				if w.settled[y] != w.gen || w.reach[y] != w.gen {
					return true
				}
				if dx+int64(wt) != w.ctx.Dist(y) {
					return true
				}
				if w.chebToCell(y, cellIdx) <= innerRadius {
					return true
				}
				w.anSet[x] = true
				w.anSet[y] = true
				return true
			})
		}
	}
	nodes := make([]graph.VertexID, 0, len(w.anSet))
	for a := range w.anSet {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// fillVertexDistances records dist(v, a) for every cell vertex v and access
// node a, using one early-terminating Dijkstra per vertex (the paper's I2).
func (w *accessWorker) fillVertexDistances(verts, access []graph.VertexID, vaDist [][]int32) {
	if len(access) == 0 {
		return
	}
	for _, v := range verts {
		w.ctx.Run([]graph.VertexID{v}, dijkstra.Options{Targets: access})
		row := make([]int32, len(access))
		for i, a := range access {
			if d := w.ctx.Dist(a); d < graph.Infinity {
				row[i] = narrow(d, &w.err)
			} else {
				row[i] = invalidDist
			}
		}
		vaDist[v] = row
	}
}

// fillPairTable computes the access-node pair distances (the paper's I1)
// with the CH bucket many-to-many. Dense layers store the full table; the
// fine layer of a hybrid stores only pairs within 15 fine cells (Chebyshev),
// the maximum range a mid-range query can ask for (Appendix E.1 stores only
// pairs whose outer shells overlap, for the same reason).
//
// The sources are split into GOMAXPROCS chunks of consecutive rows. Each
// chunk runs one many-to-many against all access nodes on a goroutine of
// its own and writes only its own rows, so the table does not depend on the
// split; every chunk repeats the backward searches, which is what buys the
// parallel forward ones. An overflowing cell fails the build with the first
// error in row order, as one serial many-to-many would.
func fillPairTable(l *layer, h *ch.Hierarchy, dense bool) error {
	count := len(l.anList)
	if count == 0 {
		return nil
	}
	const sparseRange = 15
	var cellColRow [][2]int
	if dense {
		l.table = make([]int32, count*count)
		for i := range l.table {
			l.table[i] = invalidDist
		}
	} else {
		l.sparsePartner = make([][]int32, count)
		l.sparseDist = make([][]int32, count)
		cellColRow = make([][2]int, count)
		for i, a := range l.anList {
			c, r := l.cellCoords(l.cellOf[a])
			cellColRow[i] = [2]int{c, r}
		}
	}
	chunks := runtime.GOMAXPROCS(0)
	rows := (count + chunks - 1) / chunks
	errs := make([]error, chunks)
	par.Each(chunks, chunks, func(int) func(int) {
		return func(c int) {
			lo, hi := min(c*rows, count), min((c+1)*rows, count)
			err := &errs[c]
			h.ManyToManyEach(l.anList[lo:hi], l.anList, func(si, ti int, d int64) {
				si += lo
				if dense {
					l.table[si*count+ti] = narrow(d, err)
					return
				}
				a, b := cellColRow[si], cellColRow[ti]
				if geom.ChebyshevCellDist(a[0], a[1], b[0], b[1]) > sparseRange {
					return
				}
				l.sparsePartner[si] = append(l.sparsePartner[si], int32(ti))
				l.sparseDist[si] = append(l.sparseDist[si], narrow(d, err))
			})
			if !dense {
				for si := lo; si < hi; si++ {
					sortPartners(l, si)
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortPartners sorts the sparse row si by partner, for binary search:
// ManyToManyEach reports targets in bucket order.
func sortPartners(l *layer, si int) {
	partners, dists := l.sparsePartner[si], l.sparseDist[si]
	idx := make([]int, len(partners))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(x, y int) bool { return partners[idx[x]] < partners[idx[y]] })
	sp := make([]int32, len(idx))
	sd := make([]int32, len(idx))
	for j, k := range idx {
		sp[j] = partners[k]
		sd[j] = dists[k]
	}
	l.sparsePartner[si], l.sparseDist[si] = sp, sd
}

// narrow returns the distance d as a table cell; the first d that does not
// fit one is kept in *err (graph.ErrWeightOverflow), which fails the build.
func narrow(d int64, err *error) int32 {
	w, e := graph.NarrowWeight(d)
	if e != nil && *err == nil {
		*err = fmt.Errorf("tnr: %w", e)
	}
	return w
}
