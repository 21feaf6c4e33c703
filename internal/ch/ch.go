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
//
// # Preprocessing
//
// A priority evaluation simulates the contraction, and the lazy update
// re-evaluates a popped vertex on exactly the state it is then contracted
// in, so the simulation leaves its shortcuts behind and contraction inserts
// those. Adjacency lists hold live vertices only: a contracted vertex is
// deleted from its neighbors' lists, keeping the order of the rest, because
// a search pushes a vertex's neighbors in list order and, once the settle
// limit binds, which of several equally distant vertices is settled decides
// which shortcuts exist. The witness search from one neighbor serves the
// neighbors after it in the list (none for the last, which runs no search)
// and stops when the last of them is settled: a settled distance is final,
// so every distance read is the one the search run to its budget would
// have left. One tightening is not taken: the distance budget stays the
// heaviest edge among all other neighbors, not only the later ones. The
// two agree at the default limit, but under a small limit the lower
// budget prunes pushes, reorders ties in the heap and changes the index.
package ch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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

// Hierarchy is a contraction hierarchy: built, read onto the heap or cast
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
	work         buildWork // set once by Build; zero for a loaded index

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

// Build constructs the hierarchy for g. It fails, with an error wrapping
// graph.ErrWeightOverflow, when a shortcut it has to insert is too long to
// store. No pass over g ahead of the contraction can tell: a shortcut's
// weight is bounded by nothing short of the contraction itself, since a
// budgeted witness search may miss the witness that would have made it
// unnecessary — so the check sits where the sum is narrowed, and Build has
// an error result.
func Build(g *graph.Graph, opts Options) (*Hierarchy, error) {
	opts = opts.withDefaults()
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

	deleted := make([]int32, n) // contracted-neighbor count
	depth := make([]int32, n)
	ws := newWitnessSearcher(n, adj, opts.WitnessSettleLimit)

	// priority also leaves v's shortcuts in ws.shortcuts.
	priority := func(v graph.VertexID) int64 {
		ed := int64(ws.simulate(v) - len(adj[v]))
		return int64(opts.EdgeDiffWeight)*ed +
			int64(opts.DeletedWeight)*int64(deleted[v]) +
			int64(opts.DepthWeight)*int64(depth[v])
	}

	heap := pq.New(n)
	for v := 0; v < n; v++ {
		heap.Push(graph.VertexID(v), priority(graph.VertexID(v)))
	}

	nextRank := int32(0)
	for !heap.Empty() {
		v, key := heap.Pop()
		// Lazy update: re-evaluate; if the vertex no longer has minimal
		// priority, push it back and try again.
		if np := priority(v); np > key && !heap.Empty() {
			if _, minKey := heap.Min(); np > minKey {
				heap.Push(v, np)
				continue
			}
		}

		// Contract v: the re-evaluation just simulated exactly this.
		for _, sc := range ws.shortcuts {
			w, err := graph.NarrowWeight(sc.weight)
			if err != nil {
				return nil, fmt.Errorf("ch: shortcut {%d, %d} through %d: %w", sc.u, sc.w, v, err)
			}
			addOrImprove(&adj[sc.u], halfEdge{to: sc.w, w: w, middle: int32(v)})
			addOrImprove(&adj[sc.w], halfEdge{to: sc.u, w: w, middle: int32(v)})
			finalEdges = append(finalEdges, finalEdge{u: sc.u, v: sc.w, w: w, middle: int32(v)})
		}
		h.numShortcuts += len(ws.shortcuts)

		h.rank[v] = nextRank
		nextRank++
		for _, e := range adj[v] {
			// Order-preserving, as the package doc requires.
			adj[e.to] = slices.DeleteFunc(adj[e.to], func(x halfEdge) bool { return x.to == v })
			deleted[e.to]++
			if depth[e.to] < depth[v]+1 {
				depth[e.to] = depth[v] + 1
			}
		}
		adj[v] = nil
	}
	h.work = ws.work

	// Build the upward CSR from the minimal edge set.
	// Orient every edge from its lower-ranked endpoint and order by (tail,
	// head, weight), insertion order last: the first edge of each (tail,
	// head) run is the one to keep — among equal weights the edge inserted
	// first — and the survivors already are the CSR, in an arc order that
	// depends on the graph alone. A counting sort brings the tails
	// together, a stable sort orders each short row.
	row := make([]int32, n+1)
	for i := range finalEdges {
		e := &finalEdges[i]
		if h.rank[e.u] > h.rank[e.v] {
			e.u, e.v = e.v, e.u
		}
		row[e.u+1]++
	}
	for v := 0; v < n; v++ {
		row[v+1] += row[v]
	}
	byTail := make([]finalEdge, len(finalEdges))
	for _, e := range finalEdges {
		byTail[row[e.u]] = e
		row[e.u]++ // row[u] ends as the end of u's row, the start of u+1's
	}
	for u, lo := 0, int32(0); u < n; u++ {
		slices.SortStableFunc(byTail[lo:row[u]], func(a, b finalEdge) int {
			return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.w, b.w))
		})
		lo = row[u]
	}
	finalEdges = slices.CompactFunc(byTail, func(a, b finalEdge) bool {
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

	return h, nil
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

// NumShortcuts returns the number of shortcuts created during preprocessing.
func (h *Hierarchy) NumShortcuts() int { return h.numShortcuts }

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
