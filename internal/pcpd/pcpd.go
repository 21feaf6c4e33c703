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
// Build takes every vertex's canonical next hop toward every target from
// one hierarchy sweep per target (ch.Hierarchy.NextHopMatrix; the rule is
// a function of the graph and not of the hierarchy swept) and then numbers
// the in-tree of the hops toward each target. The hop matrix is
// target-major, hop[t*n+v] (n² B), and the labels hold two uint16 per
// (target, vertex) (4n² B, hence n ≤ 65535). All three stages, the sweeps,
// the numbering and the decomposition, run on GOMAXPROCS goroutines, and
// the tree does not depend on their scheduling. The matrix and the
// labels are released before Build returns, so peak build memory is still
// 5n² B plus the index (SizeBytes) — 29 MB + 7 MB at n = 2400, 2 GB at
// maxN.
//
// # The tree
//
// The tree is one []uint32 of split nodes, 16 slots each in qa*4+qb order
// (one cache line). A slot holds a leaf's ψ (a vertex, an edge, or none),
// nil, a child split node's index, or a collision table. Every vertex pair
// is covered by one slot, so all tables are one sorted run of (s, t) → ψ.
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
	"slices"
	"sort"
	"sync"

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

// maxN guards against graphs whose first-hop matrix and path labels (5 B
// per vertex pair) would not fit in memory; the paper could not run PCPD
// beyond its four smallest datasets either. The uint16 path labels need
// n <= noLabel, which maxN implies: the declaration below does not compile
// otherwise.
const maxN = 20000

const _ uint = noLabel - maxN

// quadBits is the quadtree resolution per axis, the finest a Morton code
// of 32 bits holds.
const quadBits = 16

// The tags of a slot (see the package doc); the payload is slot >> tagBits.
const (
	slotNil   uint32 = 0 // no vertex pair
	tagNone   uint32 = 1 // a leaf: no pair has a path
	tagVertex uint32 = 2 // a leaf: ψ is the vertex in the payload
	tagEdge   uint32 = 3 // a leaf: ψ is edge payload>>1, traversed V->U if payload&1
	tagSplit  uint32 = 4 // the split node whose index is the payload
	tagTable  uint32 = 5 // a collision table: ψ per pair, in the table run
	tagTask   uint32 = 6 // during Build only: the queued task in the payload
	tagBits          = 3
	tagMask   uint32 = 1<<tagBits - 1
)

// tableKey is the pair (s, t) as a table key; maxN keeps ids below 1<<16.
func tableKey(s, t graph.VertexID) uint32 { return uint32(s)<<16 | uint32(t) }

// Index is a built PCPD index.
type Index struct {
	g    *graph.Graph
	code []uint32
	// edges[id] resolves an edge-valued ψ to its endpoints and weight.
	edges []graph.Edge
	// slots holds the split nodes, 16 slots each; root is the root's slot.
	slots []uint32
	root  uint32
	// The collision tables' pairs (sorted tableKeys) and their leaf slots.
	tableKeys, tablePsi []uint32

	numPairs int64 // leaves (path-coherent pairs), the paper's |Spcp|
	numNodes int64
	checks   int64 // path-membership checks the build made
}

// Build constructs the PCPD index; it sweeps h, a contraction hierarchy of
// g, once per target to find the next hops toward it and label their
// in-tree, and then runs the recursive pair decomposition. The index does
// not depend on which hierarchy it is.
func Build(g *graph.Graph, h *ch.Hierarchy) (*Index, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("pcpd: empty graph")
	}
	if n > maxN {
		return nil, fmt.Errorf("pcpd: graph has %d vertices, above the guard of %d", n, maxN)
	}
	if d := g.MaxDegree(); d >= noHop {
		return nil, fmt.Errorf("pcpd: max degree %d exceeds supported %d", d, noHop)
	}

	workers := runtime.GOMAXPROCS(0)
	ix := newIndex(g)
	hop := h.NextHopMatrix(workers)
	lab := buildTrees(g, hop, workers)
	sh := &shared{ix: ix, n: n, hop: hop, lab: lab, order: geom.MortonOrder(ix.code)}
	sh.decomposeAll(quad{0, 1 << (2 * quadBits), 0, n}, workers)
	return ix, nil
}

// newIndex returns the index of g with everything but the tree.
func newIndex(g *graph.Graph) *Index {
	ix := &Index{g: g, code: make([]uint32, g.NumVertices()), edges: g.EdgesByID()}
	norm := geom.NewNormalizer(g.Bounds(), quadBits)
	for v := range ix.code {
		ix.code[v] = uint32(norm.Code(g.Coord(graph.VertexID(v))))
	}
	return ix
}

// buildTrees numbers, for every target t, the in-tree that the canonical
// next hops toward t form, in preorder: hop[t*n+v] is the adjacency slot
// of the first edge of the canonical shortest path v -> t (see
// ch.Hierarchy.NextHopMatrix), lab[(t*n+v)*2] is pre[t][v] and the element
// after it end[t][v].
func buildTrees(g *graph.Graph, hop []uint8, workers int) []uint16 {
	n := g.NumVertices()
	lab := make([]uint16, 2*n*n)
	par.Each(workers, n, func(int) func(int) {
		// The children of p are the list child[p], sibling[child[p]], ...,
		// in increasing vertex order.
		parent := make([]int32, n)
		child := make([]int32, n)
		sibling := make([]int32, n)
		return func(t int) {
			col := hop[t*n : (t+1)*n]
			row := lab[2*t*n : 2*(t+1)*n]
			for v := range child {
				child[v] = -1
			}
			for v := n - 1; v >= 0; v-- {
				row[2*v], row[2*v+1] = noLabel, 0
				if slot := col[v]; slot != noHop {
					lo, _ := g.ArcsOf(graph.VertexID(v))
					p := g.Head(lo + int32(slot))
					parent[v] = p
					sibling[v], child[p] = child[p], int32(v)
				}
			}
			// Depth-first from t along the lists, without a stack: a vertex
			// with no child left closes, and so does every ancestor whose
			// last child it closed.
			v, next := int32(t), uint16(1)
			row[2*v] = 0
		walk:
			for {
				if c := child[v]; c >= 0 {
					v = c
				} else {
					for {
						row[2*v+1] = next
						if v == int32(t) {
							break walk
						}
						if s := sibling[v]; s >= 0 {
							v = s
							break
						}
						v = parent[v]
					}
				}
				row[2*v] = next
				next++
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
	hop   []uint8  // see buildTrees
	lab   []uint16 // see buildTrees
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

// task is one queued pair of squares and, once decomposed, its slot and its
// fragment: a tagSplit slot indexes nodes, a tagTask slot subs.
type task struct {
	a, b  quad
	depth int
	slot  uint32
	nodes []uint32
	subs  []*task
}

// decomposeAll decomposes (all, all) on workers goroutines and sets the
// index's tree, collision tables and node, pair and check counts.
func (sh *shared) decomposeAll(all quad, workers int) {
	root := &task{a: all, b: all}
	// Buffered for every task there can be, so queueing never blocks.
	tasks := make(chan *task, maxQueued)
	var pending sync.WaitGroup // tasks queued and not yet decomposed
	pending.Add(1)
	tasks <- root

	ds := make([]*decomposer, workers)
	var wg sync.WaitGroup
	for w := range ds {
		d := &decomposer{shared: sh, tasks: tasks, pending: &pending}
		ds[w] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				d.cur = tk
				tk.slot = d.decompose(tk.a, tk.b, tk.depth)
				pending.Done()
			}
		}()
	}
	pending.Wait()
	close(tasks)
	wg.Wait()

	ix := sh.ix
	var table []uint64 // tableKey<<32 | ψ
	for _, d := range ds {
		ix.numNodes += d.numNodes
		ix.numPairs += d.numPairs
		ix.checks += d.checks
		table = append(table, d.table...)
	}
	slices.Sort(table)
	for _, e := range table {
		ix.tableKeys, ix.tablePsi = append(ix.tableKeys, uint32(e>>32)), append(ix.tablePsi, uint32(e))
	}
	ix.slots, ix.root = layout(make([]uint32, 0, numSlots(root)), root)
}

// numSlots returns the number of slots of tk's fragment and its sub-pairs'.
func numSlots(tk *task) int {
	n := len(tk.nodes)
	for _, sub := range tk.subs {
		n += numSlots(sub)
	}
	return n
}

// layout appends tk's fragment and then, in slot order, its sub-pairs' to
// slots, relocating split and task slots, and returns tk's relocated slot:
// the layout depends on the tree only, not on which worker ran which task.
func layout(slots []uint32, tk *task) ([]uint32, uint32) {
	base := uint32(len(slots) / 16)
	relocate := func(v uint32) uint32 {
		if v&tagMask == tagSplit {
			v += base << tagBits
		}
		return v
	}
	slots = append(slots, tk.nodes...)
	for i := int(base) * 16; i < int(base)*16+len(tk.nodes); i++ {
		slot := relocate(slots[i])
		if slot&tagMask == tagTask {
			slots, slot = layout(slots, tk.subs[slot>>tagBits])
		}
		slots[i] = slot
	}
	return slots, relocate(tk.slot)
}

// decomposer is one worker: its scratch, task, counts and table pairs.
type decomposer struct {
	*shared
	tasks   chan<- *task
	pending *sync.WaitGroup
	cur     *task

	verts []graph.VertexID // the vertices after s of the path being examined
	miss  [2]int           // positions in order of the pair the last witness missed, or -1
	table []uint64         // collision table pairs, tableKey<<32 | ψ

	numNodes, numPairs, checks int64
}

// sub returns the slot of the pair (a, b), decomposed now or, near the
// root, queued for whichever worker is free.
func (d *decomposer) sub(a, b quad, depth int) uint32 {
	if depth > queuedDepth {
		return d.decompose(a, b, depth)
	}
	tk := &task{a: a, b: b, depth: depth}
	d.cur.subs = append(d.cur.subs, tk)
	d.pending.Add(1)
	d.tasks <- tk
	return uint32(len(d.cur.subs)-1)<<tagBits | tagTask
}

// decompose decomposes the square pair (a, b) into the running task's
// fragment and returns its slot, nil when it covers no vertex pair.
func (d *decomposer) decompose(a, b quad, depth int) uint32 {
	if a.empty() || b.empty() {
		return slotNil
	}
	if a.idxHi-a.idxLo == 1 && b.idxHi-b.idxLo == 1 && d.order[a.idxLo] == d.order[b.idxLo] {
		return slotNil // the only pair is (v, v)
	}
	d.numNodes++
	if psi, ok := d.coherent(a, b); ok {
		d.numPairs++
		return psi
	}
	// Both squares start as the root span and child quarters both, so
	// a.span == b.span at every pair: they split together or not at all.
	if a.splittable() {
		at := len(d.cur.nodes)
		d.cur.nodes = append(d.cur.nodes, make([]uint32, 16)...)
		var cb [4]quad
		for q := range cb {
			cb[q] = d.child(b, uint64(q))
		}
		for qa := uint64(0); qa < 4; qa++ {
			ca := d.child(a, qa)
			if ca.empty() {
				continue
			}
			for qb := uint64(0); qb < 4; qb++ {
				slot := d.sub(ca, cb[qb], depth+1)
				d.cur.nodes[at+int(qa*4+qb)] = slot
			}
		}
		return uint32(at/16)<<tagBits | tagSplit
	}
	// Coordinate collisions: several vertices share both unit cells.
	for i := a.idxLo; i < a.idxHi; i++ {
		for j := b.idxLo; j < b.idxHi; j++ {
			s, t := d.order[i], d.order[j]
			if s == t {
				continue
			}
			d.table = append(d.table, uint64(tableKey(s, t))<<32|uint64(d.pairPsi(s, t)))
			d.numPairs++
		}
	}
	return tagTable
}

// nextArc returns the arc the canonical path from v toward t leaves v on;
// v must be able to reach t and differ from it.
func (sh *shared) nextArc(v, t graph.VertexID) int32 {
	lo, _ := sh.ix.g.ArcsOf(v)
	return lo + int32(sh.hop[int(t)*sh.n+int(v)])
}

// edgePsi returns the leaf slot of arc's edge, traversed from vertex from.
func (sh *shared) edgePsi(from graph.VertexID, arc int32) uint32 {
	id := uint32(sh.ix.g.EdgeIDOf(arc))
	dir := uint32(0)
	if sh.ix.edges[id].U != from {
		dir = 1
	}
	return (id<<1|dir)<<tagBits | tagEdge
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
// common element and returns the leaf slot of the ψ Appendix D's nested
// loop would: the first edge of the first pair's path that every path
// traverses, otherwise its first vertex interior to every path (package doc).
func (d *decomposer) coherent(a, b quad) (uint32, bool) {
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
	if d.hop[int(t)*d.n+int(s)] == noHop {
		// Coherent only if no pair has a path at all.
		for j := b.idxLo; j < b.idxHi; j++ {
			col := d.hop[int(d.order[j])*d.n:]
			for i := a.idxLo; i < a.idxHi; i++ {
				if s := d.order[i]; s != d.order[j] && col[s] != noHop {
					return 0, false
				}
			}
		}
		return tagNone, true
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
			return uint32(v)<<tagBits | tagVertex, true
		}
	}
	return 0, false
}

// pairPsi computes the leaf slot of a single pair (used by collision
// tables): the middle vertex of the path, or the edge of a single-edge path.
func (d *decomposer) pairPsi(s, t graph.VertexID) uint32 {
	if d.hop[int(t)*d.n+int(s)] == noHop {
		return tagNone
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
	return uint32(d.verts[len(d.verts)/2-1])<<tagBits | tagVertex
}

// lookup descends the tree to the slot covering (s, t) and returns its
// leaf slot: the slot itself, or the pair's entry of a collision table.
func (ix *Index) lookup(s, t graph.VertexID) uint32 {
	cs, ct, slot := ix.code[s], ix.code[t], ix.root
	// Each level splits both squares by the next two Morton code bits.
	for shift := 2 * quadBits; slot&tagMask == tagSplit; {
		shift -= 2
		qa, qb := cs>>shift&3, ct>>shift&3
		slot = ix.slots[int(slot>>tagBits)*16+int(qa*4+qb)]
	}
	if slot == tagTable {
		if i, ok := slices.BinarySearch(ix.tableKeys, tableKey(s, t)); ok {
			return ix.tablePsi[i]
		}
	}
	return slot
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
	switch psi & tagMask {
	case tagEdge:
		e := ix.edges[psi>>(tagBits+1)]
		u, v := e.U, e.V
		if psi>>tagBits&1 != 0 {
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
	case tagVertex:
		m := graph.VertexID(psi >> tagBits)
		if m == s || m == t {
			return false // interiority violated: corrupted index
		}
		if !ix.appendPath(w, path, s, m, total, depth+1) {
			return false
		}
		return ix.appendPath(w, path, m, t, total, depth+1)
	default:
		return false // no path, or a corrupted index
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
	if !ix.appendPath(&w, nil, s, t, &total, 0) {
		return graph.Infinity, w.err
	}
	return total, nil
}

// NumPairs returns |Spcp|, the number of path-coherent pairs.
func (ix *Index) NumPairs() int64 { return ix.numPairs }

// NumNodes returns the total node count of the decomposition tree.
func (ix *Index) NumNodes() int64 { return ix.numNodes }

// SizeBytes reports the exact size of the index arrays: the tree and its
// collision tables (Appendix C's structure), the codes and the edges.
func (ix *Index) SizeBytes() int64 {
	words := len(ix.slots) + len(ix.tableKeys) + len(ix.tablePsi) + len(ix.code)
	return int64(words)*4 + int64(len(ix.edges))*12
}
