package ch

import (
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// This file is the all-pairs kernel behind the preprocessing of SILC, PCPD
// and arc-flags (§4.1: all three need one-to-all shortest paths from many
// sources). A Sweeper computes d(s, ·) through the hierarchy the way PHAST
// does (Delling, Goldberg, Nowatzyk, Werneck, IPDPS 2011): an upward search
// from s labels the few vertices above it, then one pass over all vertices
// from the highest rank down lowers each vertex by its arcs to
// higher-ranked neighbours, whose labels are final by then. The only
// priority queue is the one of the upward search, and the pass reads
// nothing but rank and the upward CSR — on an undirected graph the arcs
// that lead down into v are v's own upward row read backwards — so a
// built, a heap-loaded and a mapped hierarchy sweep alike.
//
// # Canonical first hops
//
// The first hop from s toward t is a function of the graph alone:
//
//	hop(s, t) = the lowest adjacency slot k of s with
//	            w(s, k) + d(head(s, k), t) = d(s, t),
//
// and 0xff when t = s or t is unreachable. FirstHops evaluates the rule
// from d(s, ·) without any d(u, t): an arc u→v is tight when d(s, u) +
// w(u, v) = d(s, v), a shortest path is a path of tight arcs, and so slot k
// qualifies for t exactly when it is tight and t can be reached from its
// head over tight arcs. One depth-first walk per tight slot, in slot order,
// that stops at vertices a lower slot has claimed visits every vertex and
// scans every arc once. Following hop(·, t) from s shortens d(·, t) by the
// arc taken at every step, so it reaches t in exactly d(s, t), and for a
// fixed t the hops form an in-tree rooted at t.

// NoHop is the first hop toward the source itself and toward vertices it
// cannot reach.
const NoHop = 0xff

// Sweeper is the reusable state of one-to-all sweeps over a hierarchy:
// 32 bytes per vertex — the upward search's 16-byte label and 4-byte heap
// position, the 8-byte distance row and the 4-byte order. It is not safe
// for concurrent use; create one per goroutine.
type Sweeper struct {
	h     *Hierarchy
	order []graph.VertexID // every vertex, highest rank first
	dist  []int64
	src   graph.VertexID
	q     pq.Search
	stack []graph.VertexID
}

// NewSweeper returns a sweeper over h. The rank array must be the
// permutation Build leaves and Save stores.
func (h *Hierarchy) NewSweeper() *Sweeper {
	n := len(h.rank)
	sw := &Sweeper{h: h, order: make([]graph.VertexID, n), dist: make([]int64, n), q: pq.NewSearch(n)}
	for v, r := range h.rank {
		sw.order[n-1-int(r)] = graph.VertexID(v)
	}
	return sw
}

// Run computes the exact distance from s to every vertex, graph.Infinity
// where there is no path. The slice is the sweeper's and holds until the
// next Run.
func (sw *Sweeper) Run(s graph.VertexID) []int64 {
	h, dist, q := sw.h, sw.dist, &sw.q
	for v := range dist {
		dist[v] = graph.Infinity
	}
	sw.src = s
	q.Reset()
	q.Visit(s, 0, -1)
	for !q.Empty() {
		v, d := q.Pop()
		dist[v] = d
		for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
			q.Visit(h.upHead[a], d+int64(h.upWeight[a]), v)
		}
	}
	for _, v := range sw.order {
		d := dist[v]
		for a, hi := h.firstUp[v], h.firstUp[v+1]; a < hi; a++ {
			if nd := dist[h.upHead[a]] + int64(h.upWeight[a]); nd < d {
				d = nd
			}
		}
		dist[v] = d
	}
	return dist
}

// FirstHops fills row, one entry per vertex, with the canonical first hops
// from the source of the last Run (see the rule above).
func (sw *Sweeper) FirstHops(row []uint8) {
	g, dist := sw.h.g, sw.dist
	for t := range row {
		row[t] = NoHop
	}
	lo, hi := g.ArcsOf(sw.src)
	for k := lo; k < hi; k++ {
		// Weights are positive, so no tight arc leads back to the source
		// and NoHop marks exactly the vertices no slot has claimed yet.
		first := g.Head(k)
		if int64(g.ArcWeight(k)) != dist[first] || row[first] != NoHop {
			continue
		}
		slot := uint8(k - lo)
		row[first] = slot
		stack := append(sw.stack[:0], first)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			du := dist[u]
			for a, end := g.ArcsOf(u); a < end; a++ {
				if v := g.Head(a); row[v] == NoHop && du+int64(g.ArcWeight(a)) == dist[v] {
					row[v] = slot
					stack = append(stack, v)
				}
			}
		}
		sw.stack = stack
	}
}
