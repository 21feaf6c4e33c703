// Package ch implements Contraction Hierarchies (Geisberger et al., WEA
// 2008), the vertex-importance-based index of the paper's §3.2.
//
// Preprocessing imposes a total order on the vertices and contracts them in
// that order: when vertex v is contracted, a shortcut (u, w) tagged with v
// is inserted for every neighbor pair whose shortest path runs through v
// and has no witness path avoiding v. Queries run a bidirectional Dijkstra
// that relaxes only arcs leading to higher-ranked vertices; shortest-path
// queries additionally unpack shortcuts recursively via their middle-vertex
// tags (§3.2's transformation of c1 into (v3,v1),(v1,v8)).
//
// The vertex order is computed on the fly with the standard heuristic
// priority (edge difference + deleted neighbors + shortcut depth) and lazy
// priority updates, as suggested by the paper's reference [11].
package ch

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// Options tunes preprocessing. The zero value gives sensible defaults.
type Options struct {
	// WitnessSettleLimit bounds the witness search per neighbor pair.
	// Smaller values speed preprocessing but add unnecessary shortcuts
	// (never incorrect ones). Default 120.
	WitnessSettleLimit int
	// EdgeDiffWeight, DeletedWeight and DepthWeight combine the heuristic
	// terms into a contraction priority. When all three are zero the
	// defaults 6, 2, 1 apply; setting any of them selects exactly the
	// given combination, so individual terms can be ablated (see the
	// ordering ablation benchmarks).
	EdgeDiffWeight, DeletedWeight, DepthWeight int
}

func (o Options) withDefaults() Options {
	if o.WitnessSettleLimit == 0 {
		o.WitnessSettleLimit = 120
	}
	if o.EdgeDiffWeight == 0 && o.DeletedWeight == 0 && o.DepthWeight == 0 {
		o.EdgeDiffWeight = 6
		o.DeletedWeight = 2
		o.DepthWeight = 1
	}
	return o
}

// Hierarchy is a contraction hierarchy: built, read from a stream or cast
// over a mapped file, it is the same five arrays. It is immutable after
// Build and safe for concurrent queries through per-goroutine Searchers. It
// must not be copied: m2mPool embeds sync's noCopy marker, so go vet's
// copylocks check rejects any by-value copy.
type Hierarchy struct {
	g    *graph.Graph
	rank []int32 // rank[v] = position of v in the contraction order

	// Upward search graph: for each vertex, arcs to higher-ranked
	// neighbors only (original edges and shortcuts alike), one arc per
	// neighbor. upMiddle is the only place a shortcut's middle vertex is
	// kept; path unpacking reads it through middleOf.
	firstUp  []int32
	upHead   []int32
	upWeight []int32
	upMiddle []int32 // contracted middle vertex of a shortcut, -1 for edges

	numShortcuts int
	buildTime    time.Duration

	// m2mPool recycles many-to-many scratch state (*m2mScratch), one per
	// concurrently running batch.
	m2mPool sync.Pool
}

// halfEdge is one adjacency entry of the dynamic graph used during
// contraction.
type halfEdge struct {
	to     graph.VertexID
	w      int32
	middle int32
}

// Build constructs the hierarchy for g.
func Build(g *graph.Graph, opts Options) *Hierarchy {
	opts = opts.withDefaults()
	start := time.Now()
	n := g.NumVertices()

	// Dynamic adjacency with parallel edges collapsed to minimum weight.
	adj := make([][]halfEdge, n)
	for v := 0; v < n; v++ {
		lo, hi := g.ArcsOf(graph.VertexID(v))
		for a := lo; a < hi; a++ {
			addOrImprove(&adj[v], halfEdge{to: g.Head(a), w: g.ArcWeight(a), middle: -1})
		}
	}

	h := &Hierarchy{g: g, rank: make([]int32, n)}

	type finalEdge struct {
		u, v   graph.VertexID
		w      int32
		middle int32
	}
	finalEdges := make([]finalEdge, 0, g.NumEdges()*2)
	for v := 0; v < n; v++ {
		for _, e := range adj[v] {
			if graph.VertexID(v) < e.to {
				finalEdges = append(finalEdges, finalEdge{u: graph.VertexID(v), v: e.to, w: e.w, middle: -1})
			}
		}
	}

	contracted := make([]bool, n)
	deleted := make([]int32, n) // contracted-neighbor count
	depth := make([]int32, n)
	ws := newWitnessSearcher(n, adj, contracted, opts.WitnessSettleLimit)

	priority := func(v graph.VertexID) int64 {
		needed := ws.simulate(v, nil)
		degree := 0
		for _, e := range adj[v] {
			if !contracted[e.to] {
				degree++
			}
		}
		ed := int64(needed - degree)
		return int64(opts.EdgeDiffWeight)*ed +
			int64(opts.DeletedWeight)*int64(deleted[v]) +
			int64(opts.DepthWeight)*int64(depth[v])
	}

	heap := pq.New(n)
	for v := 0; v < n; v++ {
		heap.Push(graph.VertexID(v), priority(graph.VertexID(v)))
	}

	type shortcutSpec struct {
		u, w   graph.VertexID
		weight int64
	}
	nextRank := int32(0)
	var shortcuts []shortcutSpec
	for !heap.Empty() {
		v, key := heap.Pop()
		// Lazy update: re-evaluate; if the vertex no longer has minimal
		// priority, push it back and try again.
		if !heap.Empty() {
			if np := priority(v); np > key {
				if _, minKey := heap.Min(); np > minKey {
					heap.Push(v, np)
					continue
				}
			}
		}

		// Contract v: add a shortcut for every uncovered neighbor pair.
		shortcuts = shortcuts[:0]
		ws.simulate(v, func(u, w graph.VertexID, weight int64) {
			shortcuts = append(shortcuts, shortcutSpec{u: u, w: w, weight: weight})
		})

		for _, sc := range shortcuts {
			addOrImprove(&adj[sc.u], halfEdge{to: sc.w, w: int32(sc.weight), middle: int32(v)})
			addOrImprove(&adj[sc.w], halfEdge{to: sc.u, w: int32(sc.weight), middle: int32(v)})
			finalEdges = append(finalEdges, finalEdge{u: sc.u, v: sc.w, w: int32(sc.weight), middle: int32(v)})
			h.numShortcuts++
		}

		contracted[v] = true
		h.rank[v] = nextRank
		nextRank++
		for _, e := range adj[v] {
			if !contracted[e.to] {
				deleted[e.to]++
				if depth[e.to] < depth[v]+1 {
					depth[e.to] = depth[v] + 1
				}
			}
		}
	}

	// Build the upward CSR from the minimal edge set.
	// Orient every edge from its lower-ranked endpoint and sort by (tail,
	// head, weight): the first edge of each (tail, head) run is the one to
	// keep, and the survivors already are the CSR, in an arc order that
	// depends on the graph alone. The sort is stable, so among equal
	// weights the edge inserted first wins.
	for i := range finalEdges {
		if e := &finalEdges[i]; h.rank[e.u] > h.rank[e.v] {
			e.u, e.v = e.v, e.u
		}
	}
	slices.SortStableFunc(finalEdges, func(a, b finalEdge) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v), cmp.Compare(a.w, b.w))
	})
	finalEdges = slices.CompactFunc(finalEdges, func(a, b finalEdge) bool {
		return a.u == b.u && a.v == b.v
	})
	h.firstUp = make([]int32, n+1)
	h.upHead = make([]int32, len(finalEdges))
	h.upWeight = make([]int32, len(finalEdges))
	h.upMiddle = make([]int32, len(finalEdges))
	for i, e := range finalEdges {
		h.firstUp[e.u+1]++
		h.upHead[i] = e.v
		h.upWeight[i] = e.w
		h.upMiddle[i] = e.middle
	}
	for v := 0; v < n; v++ {
		h.firstUp[v+1] += h.firstUp[v]
	}

	h.buildTime = time.Since(start)
	return h
}

// addOrImprove inserts e into the adjacency list, or lowers the weight of an
// existing entry to the same endpoint.
func addOrImprove(list *[]halfEdge, e halfEdge) {
	for i := range *list {
		if (*list)[i].to == e.to {
			if e.w < (*list)[i].w {
				(*list)[i] = e
			}
			return
		}
	}
	*list = append(*list, e)
}

// Rank returns the contraction order position of v (higher = more important).
func (h *Hierarchy) Rank(v graph.VertexID) int32 { return h.rank[v] }

// NumShortcuts returns the number of shortcuts created during preprocessing.
func (h *Hierarchy) NumShortcuts() int { return h.numShortcuts }

// BuildTime returns the wall-clock preprocessing duration.
func (h *Hierarchy) BuildTime() time.Duration { return h.buildTime }

// Graph returns the underlying road network.
func (h *Hierarchy) Graph() *graph.Graph { return h.g }

// SizeBytes reports the memory footprint of the index structures (the rank
// permutation and the upward CSR), which is what the paper's Figure 6(a)
// space-consumption plot measures.
func (h *Hierarchy) SizeBytes() int64 {
	return int64(len(h.firstUp))*4 + int64(len(h.upHead))*4 +
		int64(len(h.upWeight))*4 + int64(len(h.upMiddle))*4 + int64(len(h.rank))*4
}

// middleOf resolves the middle vertex of the edge/shortcut joining u and w
// by scanning the upward arcs of the lower-ranked endpoint for the other
// one. When m was contracted its arcs to u and w were final — no edge
// incident to a contracted vertex is added or improved afterwards — so the
// halves of a shortcut (u, w) via m are exactly the arcs (m, u) and (m, w)
// found here. Rows are a handful of arcs, and a linear scan depends on no
// sort order a file would have to be trusted for. Reported middles below
// zero mean "original edge".
func (h *Hierarchy) middleOf(u, w graph.VertexID) (int32, bool) {
	if h.rank[u] > h.rank[w] {
		u, w = w, u
	}
	for a, hi := h.firstUp[u], h.firstUp[u+1]; a < hi; a++ {
		if h.upHead[a] == w {
			return h.upMiddle[a], true
		}
	}
	return 0, false
}
