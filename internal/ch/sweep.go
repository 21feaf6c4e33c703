package ch

import (
	"roadnet/internal/graph"
	"roadnet/internal/par"
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
// Each technique reads sweeps its own way. NextHopMatrix sweeps from every
// target t — on an undirected graph Run(t) is d(·, t) — and stores every
// vertex v's canonical first hop toward t at hop[t*n+v]. PCPD numbers the
// in-tree that the hops toward each t form; SILC reads hop[t*n+s] over
// every t, the first hops from s. Arc flags also sweeps from targets, the
// boundary vertices, and keeps every arc that is tight toward t
// (internal/arcflags).
//
// # Canonical first hops
//
// The first hop from s toward t is a function of the graph alone:
//
//	hop(s, t) = the lowest adjacency slot k of s with
//	            w(s, k) + d(head(s, k), t) = d(s, t),
//
// and 0xff when t = s or t is unreachable. nextHops evaluates the rule as
// it stands, for every s at once, from d(·, t). Weights are positive, so
// following hop(·, t) from s shortens d(·, t) by the arc taken at every
// step: it reaches t in exactly d(s, t), and for a fixed t the hops form
// an in-tree rooted at t.

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
	q     pq.Search
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

// NextHopMatrix returns the canonical first hop of every vertex toward
// every target, target-major: hop[t*n+v] is v's first hop toward t, and
// hop[t*n+s] over every t are the first hops from s. It makes one sweep
// per target on workers goroutines; the matrix is n² bytes and depends
// neither on the hierarchy nor on workers.
func (h *Hierarchy) NextHopMatrix(workers int) []uint8 {
	n := len(h.rank)
	hop := make([]uint8, n*n)
	par.Each(workers, n, func(int) func(int) {
		sw := h.NewSweeper()
		return func(t int) {
			sw.Run(graph.VertexID(t))
			sw.nextHops(hop[t*n : (t+1)*n])
		}
	})
	return hop
}

// nextHops fills col, one entry per vertex, with every vertex's canonical
// first hop toward the source of the last Run, which the graph being
// undirected makes the target t (see the rule above): the lowest slot of v
// whose arc is tight toward t, w(v, k) + d(head, t) = d(v, t). Weights are
// positive, so t itself has no tight arc and gets NoHop, as does every
// vertex that cannot reach t.
func (sw *Sweeper) nextHops(col []uint8) {
	g, dist := sw.h.g, sw.dist
	for v := range col {
		col[v] = NoHop
		dv := dist[v]
		if dv >= graph.Infinity {
			continue
		}
		lo, hi := g.ArcsOf(graph.VertexID(v))
		for k := lo; k < hi; k++ {
			if dist[g.Head(k)]+int64(g.ArcWeight(k)) == dv {
				col[v] = uint8(k - lo)
				break
			}
		}
	}
}
