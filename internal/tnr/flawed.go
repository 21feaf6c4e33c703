package tnr

import (
	"slices"
	"sort"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// This file reproduces the defective access-node computation of Bast et al.
// that the paper analyses in Appendix B.
//
// The method samples the outer shell: it collects the vertices Sup lying on
// the ring of cells at Chebyshev distance exactly 4 from the cell C (the
// drawn boundary of the 9x9 block), computes the distances from every
// inner-shell vertex vj in Sin to C and to Sup, and marks as access nodes only those vj that minimize
// dist(vi, vj) + dist(vj, vk) for some vi in C and vk in Sup.
//
// The flaw (the paper's Figure 12(b)): a vertex vj in Sin whose only
// connection to the exterior is an edge that jumps straight over the
// sampled ring is never on a shortest path from C to Sup, so it is omitted
// even though it is a genuine access node. Queries whose shortest path runs
// through the omitted vertex then return overestimated distances.

// flawedAccessNodes implements Bast et al.'s method for one cell. It
// samples its own outer boundary, so it leaves the cell's Vout unread.
func (w *accessWorker) flawedAccessNodes(cellIdx int32, verts, _ []graph.VertexID) []graph.VertexID {
	sin := w.innerShellVertices(cellIdx)
	sup := w.outerRingVertices(cellIdx)
	if len(sin) == 0 || len(sup) == 0 {
		return nil
	}

	// One many-to-many over the hierarchy yields dist(vj, vi) for vi in C
	// and dist(vj, vk) for vk in Sup: Sin is the forward side and C ∪ Sup
	// the backward one, whatever their lengths. The graph is undirected, so
	// either order gives the same distances, and both measured alike.
	targets := make([]graph.VertexID, 0, len(verts)+len(sup))
	targets = append(targets, verts...)
	targets = append(targets, sup...)
	nt := len(targets)
	dist := make([]int64, len(sin)*nt) // dist[j*nt+x] = dist(sin[j], targets[x])
	for i := range dist {
		dist[i] = graph.Infinity
	}
	w.h.ManyToManyEach(sin, targets, func(j, x int, d int64) { dist[j*nt+x] = d })

	marked := make(map[graph.VertexID]bool)
	for i := range verts {
		for k := range sup {
			bestJ, bestD := -1, graph.Infinity
			for j := range sin {
				if d := dist[j*nt+i] + dist[j*nt+len(verts)+k]; d < bestD {
					bestD = d
					bestJ = j
				}
			}
			if bestJ >= 0 && bestD < graph.Infinity {
				marked[sin[bestJ]] = true
			}
		}
	}
	nodes := make([]graph.VertexID, 0, len(marked))
	for a := range marked {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// innerShellVertices returns, in ascending order, the endpoints of edges
// crossing the inner shell of the cell (exactly one endpoint inside the 5x5
// block).
func (w *accessWorker) innerShellVertices(cellIdx int32) []graph.VertexID {
	var nodes []graph.VertexID
	for _, u := range w.blockVertices(cellIdx, 0, innerRadius) {
		w.g.Neighbors(u, func(v graph.VertexID, _ graph.Weight, _ int32) bool {
			if w.chebToCell(v, cellIdx) > innerRadius {
				nodes = append(nodes, u, v)
			}
			return true
		})
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// outerRingVertices returns, in ascending order, the vertices located in the
// ring of cells at Chebyshev distance exactly outerRadius from the cell —
// Bast et al.'s sampled outer boundary. Edges that jump over this ring are
// missed, which is precisely the defect.
func (w *accessWorker) outerRingVertices(cellIdx int32) []graph.VertexID {
	nodes := w.blockVertices(cellIdx, outerRadius, outerRadius)
	slices.Sort(nodes)
	return nodes
}

// blockVertices returns the vertices of the cells at Chebyshev distance lo
// to hi from the cell, in no particular order.
func (w *accessWorker) blockVertices(cellIdx int32, lo, hi int) []graph.VertexID {
	var nodes []graph.VertexID
	cc, cr := w.l.cellCoords(cellIdx)
	for r := max(cr-hi, 0); r <= min(cr+hi, w.l.grid.Rows-1); r++ {
		for c := max(cc-hi, 0); c <= min(cc+hi, w.l.grid.Cols-1); c++ {
			if geom.ChebyshevCellDist(c, r, cc, cr) >= lo {
				nodes = append(nodes, w.cellVerts[w.l.grid.CellIndex(c, r)]...)
			}
		}
	}
	return nodes
}
