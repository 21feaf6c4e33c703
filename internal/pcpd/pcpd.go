// Package pcpd implements Path-Coherent Pairs Decomposition
// (Sankaranarayanan et al., PVLDB 2009), the second spatial-coherence index
// of the paper's §3.5.
//
// Preprocessing recursively decomposes pairs of quadtree squares (X, Y)
// until, for every pair, all shortest paths from X to Y share a common
// element ψ — an edge, or a vertex that is interior to every covered path
// (the interiority requirement guarantees strict progress of the query
// recursion). The recursion follows Appendix D: a failing pair of squares
// is split into 16 sub-pairs (or 4 when only one side is still divisible).
//
// # The common-element test
//
// Appendix D's test intersects the paths of all vertex pairs of X × Y. The
// ψ it yields is the first element of the first pair's canonical path, in
// path order with edges before interior vertices, that lies on every other
// pair's path. Build computes exactly that element without walking any
// path but the first:
//
//   - Labels. For a fixed target t the canonical next hops form an in-tree
//     rooted at t. Every such tree is numbered in preorder, pre[t][v] and
//     end[t][v] (one past v's last descendant), so "v lies on the canonical
//     path s→t" is pre[t][v] ≤ pre[t][s] < end[t][v], and "the path leaves
//     v over edge e" adds one look at v's next hop toward t. Either
//     membership check is O(1).
//   - Witness order. The first pair's path is walked once; each of its
//     elements, in the order above, is checked against the pair that its
//     predecessor missed (neighbours on a path mostly leave the other paths
//     together) and then against every pair, those farthest along the
//     Z-order from the first pair first, until its first miss. The first
//     element that never misses is ψ; if the first pair is unreachable the
//     pair of squares is coherent (ψ = none) only when every pair is.
//
// ψ is unchanged because both procedures return the minimum, in the same
// order, of the same set — the elements of the first path that lie on all
// paths; only the order and the number of membership checks differ.
//
// # Build cost
//
// Build makes n hierarchy sweeps for the first-hop matrix (n² B; the
// canonical first hops of ch.Sweeper, so the tree is a function of the graph
// and not of the hierarchy swept), labels the n in-trees (4n² B: two uint16
// per (target, vertex), hence n ≤ 65535) and decomposes; all three stages
// run on Options.Workers goroutines, and the tree does not depend on their
// scheduling. The matrix and the labels are released before Build returns,
// so peak build memory is still 5n² B plus the tree (SizeBytes) — 29 MB +
// 60 MB at n = 2400, 2 GB at the default MaxN.
//
// # Queries
//
// A query retrieves the unique pair covering (s, t), splits the path at ψ,
// and recurses — O(k) lookups for a path of k edges; a distance query
// computes the path and returns its length.
package pcpd

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"roadnet/internal/cancel"
	"roadnet/internal/ch"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/par"
)

const noHop = ch.NoHop

// noLabel is pre[t][v] of a vertex with no path to t; its end is 0, so it
// fails the membership check from either side.
const noLabel = math.MaxUint16

// Options configures Build.
type Options struct {
	// Bits is the quadtree resolution per axis (default and maximum 16).
	Bits uint
	// MaxN guards against accidental use on graphs whose first-hop matrix
	// and path labels (5 B per vertex pair) would not fit in memory
	// (default 20000 vertices; the paper could not run PCPD beyond its four
	// smallest datasets either). Graphs above 65535 vertices are rejected
	// whatever MaxN says.
	MaxN int
	// Workers bounds the parallelism of all three preprocessing stages —
	// the hierarchy sweeps, the path labels and the decomposition (default
	// GOMAXPROCS). The index does not depend on it.
	Workers int
	// Hierarchy optionally supplies a contraction hierarchy of the graph
	// for the sweeps; Build makes one with default options when nil. The
	// index does not depend on which hierarchy it is.
	Hierarchy *ch.Hierarchy
}

// psi encodes the common element of a path-coherent pair.
//   - psi >= 0: a vertex id
//   - psi == psiNone: no path (unreachable pair)
//   - edge: psiEdgeFlag | edgeID<<1 | direction (0: path traverses U->V)
type psiValue = int64

const (
	psiNone     psiValue = -1
	psiEdgeFlag psiValue = 1 << 40
)

type nodeKind uint8

// The values are what the golden tree digests hash; 2 and 3 were one-sided
// splits, which cannot occur (see decompose).
const (
	kindLeaf    nodeKind = 0 // a path-coherent pair: psi applies
	kindSplit16 nodeKind = 1 // both squares split: children[qa*4+qb]
	kindTable   nodeKind = 4 // same-cell coordinate collisions: per-pair psi
)

type node struct {
	kind     nodeKind
	psi      psiValue
	children []*node
	table    map[[2]graph.VertexID]psiValue
}

// Index is a built PCPD index.
type Index struct {
	g    *graph.Graph
	norm geom.Normalizer
	code []uint32
	// edges[id] resolves an edge-valued ψ to its endpoints and weight.
	edges []graph.Edge
	root  *node

	buildTime time.Duration
	numPairs  int64 // leaves (path-coherent pairs), the paper's |Spcp|
	numNodes  int64
	checks    int64 // path-membership checks the build made
}

// Build constructs the PCPD index; it sweeps the hierarchy once per vertex
// to build the first-hop matrix, labels the resulting in-trees and then runs
// the recursive pair decomposition.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	start := time.Now()
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("pcpd: empty graph")
	}
	if opts.MaxN == 0 {
		opts.MaxN = 20000
	}
	if n > opts.MaxN {
		return nil, fmt.Errorf("pcpd: graph has %d vertices, above the MaxN guard %d", n, opts.MaxN)
	}
	if n > noLabel {
		return nil, fmt.Errorf("pcpd: graph has %d vertices, path labels support at most %d", n, noLabel)
	}
	if d := g.MaxDegree(); d >= noHop {
		return nil, fmt.Errorf("pcpd: max degree %d exceeds supported %d", d, noHop)
	}
	if opts.Bits == 0 {
		opts.Bits = 16
	}
	if opts.Bits > 16 {
		return nil, fmt.Errorf("pcpd: %d quadtree bits per axis, at most 16 supported", opts.Bits)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	h := opts.Hierarchy
	if h == nil {
		var err error
		if h, err = ch.Build(g, ch.Options{}); err != nil {
			return nil, err
		}
	}

	ix := newIndex(g, opts.Bits)
	hop := buildFirstHops(h, opts.Workers)
	sh := &shared{ix: ix, n: n, hop: hop, lab: buildLabels(g, hop, opts.Workers), order: mortonOrder(ix.code)}
	ix.root = sh.decomposeAll(quad{0, ix.norm.CodeSpaceSize(), 0, n}, opts.Workers)
	ix.buildTime = time.Since(start)
	return ix, nil
}

// newIndex returns the index of g with everything but the tree.
func newIndex(g *graph.Graph, bits uint) *Index {
	ix := &Index{
		g:     g,
		norm:  geom.NewNormalizer(g.Bounds(), bits),
		code:  make([]uint32, g.NumVertices()),
		edges: g.EdgesByID(),
	}
	for v := range ix.code {
		ix.code[v] = uint32(ix.norm.Code(g.Coord(graph.VertexID(v))))
	}
	return ix
}

// mortonOrder returns the vertices sorted by Morton code.
func mortonOrder(code []uint32) []graph.VertexID {
	order := make([]graph.VertexID, len(code))
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool { return code[order[i]] < code[order[j]] })
	return order
}

// buildFirstHops computes the n × n first-hop matrix: hop[s*n+t] is the
// adjacency slot of the first edge of the canonical shortest path s -> t.
func buildFirstHops(h *ch.Hierarchy, workers int) []uint8 {
	n := h.Graph().NumVertices()
	hop := make([]uint8, n*n)
	par.Each(workers, n, func(int) func(int) {
		sw := h.NewSweeper()
		return func(s int) {
			sw.Run(graph.VertexID(s))
			sw.FirstHops(hop[s*n : (s+1)*n])
		}
	})
	return hop
}

// buildLabels numbers, for every target t, the in-tree of canonical next
// hops toward t in preorder: lab[(t*n+v)*2] is pre[t][v] and the element
// after it end[t][v].
func buildLabels(g *graph.Graph, hop []uint8, workers int) []uint16 {
	n := g.NumVertices()
	lab := make([]uint16, 2*n*n)
	par.Each(workers, n, func(int) func(int) {
		// The children of p are the list child[p], sibling[child[p]], ...
		child := make([]int32, n)
		sibling := make([]int32, n)
		stack := make([]int32, 0, 2*n)
		return func(t int) {
			row := lab[2*t*n : 2*(t+1)*n]
			for v := range child {
				child[v] = -1
			}
			for v := 0; v < n; v++ {
				row[2*v], row[2*v+1] = noLabel, 0
				if slot := hop[v*n+t]; slot != noHop {
					lo, _ := g.ArcsOf(graph.VertexID(v))
					p := g.Head(lo + int32(slot))
					sibling[v], child[p] = child[p], int32(v)
				}
			}
			// Depth-first from t; ^v on the stack closes v's subtree.
			next := uint16(0)
			stack = append(stack[:0], int32(t))
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if v < 0 {
					row[2*^v+1] = next
					continue
				}
				row[2*v] = next
				next++
				stack = append(stack, ^v)
				for c := child[v]; c >= 0; c = sibling[c] {
					stack = append(stack, c)
				}
			}
		}
	})
	return lab
}

// quad is an aligned Morton-code square together with the range of sorted
// vertices it contains.
type quad struct {
	codeLo, span uint64
	idxLo, idxHi int
}

func (q quad) empty() bool      { return q.idxLo >= q.idxHi }
func (q quad) splittable() bool { return q.span > 1 }

// shared is what every goroutine of the decomposition reads and none
// writes.
type shared struct {
	ix    *Index
	n     int
	hop   []uint8  // see buildFirstHops
	lab   []uint16 // see buildLabels
	order []graph.VertexID
}

// child returns the q-th Morton quadrant of qd.
func (sh *shared) child(qd quad, q uint64) quad {
	quarter := qd.span / 4
	lo := qd.codeLo + q*quarter
	hi := lo + quarter
	at := qd.idxLo + sort.Search(qd.idxHi-qd.idxLo, func(k int) bool {
		return uint64(sh.ix.code[sh.order[qd.idxLo+k]]) >= lo
	})
	end := at + sort.Search(qd.idxHi-at, func(k int) bool {
		return uint64(sh.ix.code[sh.order[at+k]]) >= hi
	})
	return quad{codeLo: lo, span: quarter, idxLo: at, idxHi: end}
}

// queuedDepth is the depth down to which sub-pairs are queued for any
// worker instead of being decomposed by the worker that split their
// parent: the root, its 16 sub-pairs and their 256.
const (
	queuedDepth = 2
	maxQueued   = 1 + 16 + 256
)

// task is one queued pair of squares; its subtree goes to *slot.
type task struct {
	slot  **node
	a, b  quad
	depth int
}

// decomposeAll decomposes (all, all) on workers goroutines and adds the
// node, pair and check counts to the index.
func (sh *shared) decomposeAll(all quad, workers int) *node {
	var root *node
	// Buffered for every task there can be, so queueing never blocks.
	tasks := make(chan task, maxQueued)
	var pending sync.WaitGroup // tasks queued and not yet decomposed
	pending.Add(1)
	tasks <- task{slot: &root, a: all, b: all}

	ds := make([]*decomposer, workers)
	var wg sync.WaitGroup
	for w := range ds {
		d := &decomposer{shared: sh, tasks: tasks, pending: &pending}
		ds[w] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				*tk.slot = d.decompose(tk.a, tk.b, tk.depth)
				pending.Done()
			}
		}()
	}
	pending.Wait()
	close(tasks)
	wg.Wait()
	for _, d := range ds {
		sh.ix.numNodes += d.numNodes
		sh.ix.numPairs += d.numPairs
		sh.ix.checks += d.checks
	}
	return root
}

// decomposer is one worker of the decomposition: its scratch and its share
// of the counts.
type decomposer struct {
	*shared
	tasks   chan<- task
	pending *sync.WaitGroup

	verts []graph.VertexID // the vertices after s of the path being examined
	miss  [2]int           // positions in order of the pair the last witness missed, or -1

	numNodes, numPairs, checks int64
}

// sub stores the subtree of the pair (a, b) in *slot, now or, near the
// root, whenever a worker is free.
func (d *decomposer) sub(slot **node, a, b quad, depth int) {
	if depth <= queuedDepth {
		d.pending.Add(1)
		d.tasks <- task{slot: slot, a: a, b: b, depth: depth}
		return
	}
	*slot = d.decompose(a, b, depth)
}

// decompose builds the subtree for the square pair (a, b), or nil when the
// pair covers no queryable vertex pair.
func (d *decomposer) decompose(a, b quad, depth int) *node {
	if a.empty() || b.empty() {
		return nil
	}
	if a.idxHi-a.idxLo == 1 && b.idxHi-b.idxLo == 1 && d.order[a.idxLo] == d.order[b.idxLo] {
		return nil // the only pair is (v, v)
	}
	d.numNodes++
	if psi, ok := d.coherent(a, b); ok {
		d.numPairs++
		return &node{kind: kindLeaf, psi: psi}
	}
	// Both squares start as the root span and child quarters both, so
	// a.span == b.span at every pair: they split together or not at all.
	if a.splittable() {
		nd := &node{kind: kindSplit16, children: make([]*node, 16)}
		for qa := uint64(0); qa < 4; qa++ {
			ca := d.child(a, qa)
			if ca.empty() {
				continue
			}
			for qb := uint64(0); qb < 4; qb++ {
				d.sub(&nd.children[qa*4+qb], ca, d.child(b, qb), depth+1)
			}
		}
		return nd
	}
	// Coordinate collisions: several vertices share both unit cells.
	nd := &node{kind: kindTable, table: map[[2]graph.VertexID]psiValue{}}
	for i := a.idxLo; i < a.idxHi; i++ {
		for j := b.idxLo; j < b.idxHi; j++ {
			s, t := d.order[i], d.order[j]
			if s == t {
				continue
			}
			nd.table[[2]graph.VertexID{s, t}] = d.pairPsi(s, t)
		}
	}
	d.numPairs += int64(len(nd.table))
	return nd
}

// nextArc returns the arc the canonical path from v toward t leaves v on;
// v must be able to reach t and differ from it.
func (sh *shared) nextArc(v, t graph.VertexID) int32 {
	lo, _ := sh.ix.g.ArcsOf(v)
	return lo + int32(sh.hop[int(v)*sh.n+int(t)])
}

// edgePsi encodes the edge of arc, traversed from vertex from.
func (sh *shared) edgePsi(from graph.VertexID, arc int32) psiValue {
	id := sh.ix.g.EdgeIDOf(arc)
	dir := int64(0)
	if sh.ix.edges[id].U != from {
		dir = 1
	}
	return psiEdgeFlag | int64(id)<<1 | dir
}

// witness is a candidate ψ: the edge with id edge leaving v, or, when edge
// is negative, v as an interior vertex.
type witness struct {
	v    graph.VertexID
	edge int32
}

// sources returns the preorder interval, in the in-tree of t, of the
// sources whose canonical path to t has w on it; the two are equal when
// there is no such source.
func (d *decomposer) sources(w witness, t graph.VertexID) (lo, hi uint16) {
	at := 2 * (int(t)*d.n + int(w.v))
	lo, hi = d.lab[at], d.lab[at+1]
	switch {
	case hi == 0 || w.v == t:
		return 0, 0 // v cannot reach t, or ends the path
	case w.edge < 0:
		return lo + 1, hi // v is interior to the paths from strictly below it
	case d.ix.g.EdgeIDOf(d.nextArc(w.v, t)) != w.edge:
		return 0, 0
	}
	return lo, hi
}

// onAllPaths reports whether w lies on the path of every pair of a × b.
func (d *decomposer) onAllPaths(w witness, a, b quad) bool {
	// The pair the previous witness missed comes first: neighbours on the
	// first path mostly leave the other paths together.
	if i, j := d.miss[0], d.miss[1]; i >= 0 && !d.onPaths(w, i, i+1, j) {
		return false
	}
	// Then every pair, from the far corner of the two squares back to the
	// first pair, whose path w is on by construction.
	for j := b.idxHi - 1; j >= b.idxLo; j-- {
		if !d.onPaths(w, a.idxLo, a.idxHi, j) {
			return false
		}
	}
	return true
}

// onPaths reports whether w lies on the paths from order[iLo:iHi] to
// order[j], and records the first pair it misses.
func (d *decomposer) onPaths(w witness, iLo, iHi, j int) bool {
	t := d.order[j]
	lo, hi := d.sources(w, t)
	pre := d.lab[2*int(t)*d.n : 2*(int(t)+1)*d.n]
	for i := iHi - 1; i >= iLo; i-- {
		s := d.order[i]
		if s == t {
			continue // not a pair
		}
		d.checks++
		if p := pre[2*s]; p < lo || p >= hi {
			d.miss = [2]int{i, j}
			return false
		}
	}
	return true
}

// coherent tests whether all shortest paths between the squares share a
// common element and returns the ψ Appendix D's nested loop would: the
// first edge of the first pair's path that every path traverses, otherwise
// its first vertex that is interior to every path (see the package doc).
func (d *decomposer) coherent(a, b quad) (psiValue, bool) {
	// The first pair of the nested loop; (v, v) is not a pair.
	i, j := a.idxLo, b.idxLo
	if d.order[i] == d.order[j] {
		if j+1 < b.idxHi {
			j++
		} else {
			i++
		}
	}
	s, t := d.order[i], d.order[j]
	if d.hop[int(s)*d.n+int(t)] == noHop {
		// Coherent only if no pair has a path at all.
		for i := a.idxLo; i < a.idxHi; i++ {
			s := d.order[i]
			for j := b.idxLo; j < b.idxHi; j++ {
				if t := d.order[j]; s != t && d.hop[int(s)*d.n+int(t)] != noHop {
					return 0, false
				}
			}
		}
		return psiNone, true
	}
	g := d.ix.g
	d.verts = d.verts[:0]
	d.miss = [2]int{-1, -1}
	for cur := s; cur != t; {
		arc := d.nextArc(cur, t)
		if d.onAllPaths(witness{v: cur, edge: g.EdgeIDOf(arc)}, a, b) {
			return d.edgePsi(cur, arc), true
		}
		cur = g.Head(arc)
		d.verts = append(d.verts, cur)
	}
	for _, v := range d.verts[:len(d.verts)-1] {
		if d.onAllPaths(witness{v: v, edge: -1}, a, b) {
			return int64(v), true
		}
	}
	return 0, false
}

// pairPsi computes ψ for a single pair (used by collision tables): the
// middle vertex of the path, or the edge of a single-edge path.
func (d *decomposer) pairPsi(s, t graph.VertexID) psiValue {
	if d.hop[int(s)*d.n+int(t)] == noHop {
		return psiNone
	}
	g := d.ix.g
	first := d.nextArc(s, t)
	d.verts = d.verts[:0]
	for cur := s; cur != t; {
		cur = g.Head(d.nextArc(cur, t))
		d.verts = append(d.verts, cur)
	}
	if len(d.verts) == 1 {
		return d.edgePsi(s, first)
	}
	return int64(d.verts[len(d.verts)/2-1])
}

// lookup descends the tree to the unique node covering (s, t).
func (ix *Index) lookup(s, t graph.VertexID) psiValue {
	span := uint64(ix.norm.CodeSpaceSize()) // of both squares, see decompose
	cs, ct := uint64(ix.code[s]), uint64(ix.code[t])
	aLo, bLo := uint64(0), uint64(0)
	nd := ix.root
	for nd != nil {
		switch nd.kind {
		case kindLeaf:
			return nd.psi
		case kindTable:
			if psi, ok := nd.table[[2]graph.VertexID{s, t}]; ok {
				return psi
			}
			return psiNone
		case kindSplit16:
			span /= 4
			qa := (cs - aLo) / span
			qb := (ct - bLo) / span
			aLo += qa * span
			bLo += qb * span
			nd = nd.children[qa*4+qb]
		}
	}
	return psiNone
}

// walker carries the per-query cancellation state of one recursive path
// decomposition: a step counter polled at bounded intervals and the first
// context error observed, which aborts the recursion.
type walker struct {
	ctx   context.Context
	steps int
	err   error
}

// appendPath appends the vertices of the shortest path after s up to and
// including t, returning the accumulated weight, or false when unreachable
// or when w's context was cancelled (w.err is then set).
func (ix *Index) appendPath(w *walker, path *[]graph.VertexID, s, t graph.VertexID, total *int64, depth int) bool {
	if w.err != nil {
		return false
	}
	if w.err = cancel.Poll(w.ctx, w.steps); w.err != nil {
		return false
	}
	w.steps++
	if s == t {
		return true
	}
	if depth > ix.g.NumVertices()+2 {
		return false // defensive: corrupted index
	}
	psi := ix.lookup(s, t)
	switch {
	case psi == psiNone:
		return false
	case psi&psiEdgeFlag != 0:
		e := ix.edges[(psi&^psiEdgeFlag)>>1]
		u, v := e.U, e.V
		if psi&1 != 0 {
			u, v = v, u
		}
		if !ix.appendPath(w, path, s, u, total, depth+1) {
			return false
		}
		if path != nil {
			*path = append(*path, v)
		}
		*total += int64(e.Weight)
		return ix.appendPath(w, path, v, t, total, depth+1)
	default:
		m := graph.VertexID(psi)
		if m == s || m == t {
			return false // interiority violated: corrupted index
		}
		if !ix.appendPath(w, path, s, m, total, depth+1) {
			return false
		}
		return ix.appendPath(w, path, m, t, total, depth+1)
	}
}

// Searcher is a query context over a shared Index: Distance and
// DistanceContext are the Index's, promoted, and OpenPath runs the
// recursive decomposition into the searcher's path buffer. A Searcher is
// not safe for concurrent use; create one per goroutine.
type Searcher struct {
	*Index
	path     []graph.VertexID
	pathIter graph.SlicePath
}

// NewSearcher returns a fresh query context over ix.
func (ix *Index) NewSearcher() *Searcher { return &Searcher{Index: ix} }

// OpenPath answers a shortest-path query by recursive decomposition
// (§3.5) and returns an iterator over the path plus its length, or (nil,
// Infinity, nil) when t is unreachable. The recursion assembles the path
// outside-in, so it is complete in the searcher's buffer before the first
// vertex is yielded; the iterator is invalidated by this searcher's next
// query. The recursion polls ctx every cancel.Interval steps and aborts
// with its error.
func (sr *Searcher) OpenPath(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, graph.Infinity, err
	}
	sr.path = append(sr.path[:0], s)
	var total int64
	w := walker{ctx: ctx}
	if !sr.appendPath(&w, &sr.path, s, t, &total, 0) {
		return nil, graph.Infinity, w.err
	}
	sr.pathIter.Reset(sr.path)
	return &sr.pathIter, total, nil
}

// Distance computes the shortest path and returns its length (§3.5: PCPD
// first computes the path, then returns the sum of its edge weights).
func (ix *Index) Distance(s, t graph.VertexID) int64 {
	d, _ := ix.DistanceContext(context.Background(), s, t)
	return d
}

// DistanceContext is Distance with cancellation (see OpenPath).
// An already-cancelled context aborts before any work, trivial s == t
// queries included.
func (ix *Index) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	if err := ctx.Err(); err != nil {
		return graph.Infinity, err
	}
	if s == t {
		return 0, nil
	}
	var total int64
	w := walker{ctx: ctx}
	ok := ix.appendPath(&w, nil, s, t, &total, 0)
	if w.err != nil {
		return graph.Infinity, w.err
	}
	if !ok {
		return graph.Infinity, nil
	}
	return total, nil
}

// NumPairs returns |Spcp|, the number of path-coherent pairs.
func (ix *Index) NumPairs() int64 { return ix.numPairs }

// NumNodes returns the total node count of the decomposition tree.
func (ix *Index) NumNodes() int64 { return ix.numNodes }

// BuildTime returns the wall-clock preprocessing duration.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// SizeBytes reports the decomposition tree footprint (the paper's space
// measurements count exactly this structure, whose constant factor
// Appendix C analyses).
func (ix *Index) SizeBytes() int64 {
	return ix.sizeOf(ix.root) + int64(len(ix.code))*4 + int64(len(ix.edges))*12
}

func (ix *Index) sizeOf(nd *node) int64 {
	if nd == nil {
		return 0
	}
	size := int64(48) // node header
	size += int64(len(nd.children)) * 8
	size += int64(len(nd.table)) * 24
	for _, c := range nd.children {
		size += ix.sizeOf(c)
	}
	return size
}
