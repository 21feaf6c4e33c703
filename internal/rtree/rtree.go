package rtree

import (
	"math"
	"sort"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
)

// DefaultMaxEntries is the default node capacity M.
const DefaultMaxEntries = 16

// Entry is one indexed point with an opaque 32-bit identifier (vertex id,
// POI id, ...). Its layout is three int32s, so entry arrays serialize as
// flat i32 sections and load back as zero-copy casts (binio.CastStructs).
type Entry struct {
	P  geom.Point
	ID int32
}

// Options configures tree construction.
type Options struct {
	// MaxEntries is the node capacity M (children per internal node,
	// entries per leaf). 0 means DefaultMaxEntries; values below 4 are
	// raised to 4.
	MaxEntries int
}

func (o Options) capacity() int {
	m := o.MaxEntries
	if m == 0 {
		m = DefaultMaxEntries
	}
	if m < 4 {
		m = 4
	}
	return m
}

// node is one R-tree node. Nodes are addressed by index into Tree.nodes so
// the whole structure serializes as flat arrays.
type node struct {
	rect geom.Rect
	leaf bool
	kids []int32 // child node indices (internal nodes)
	ents []Entry // entries (leaves)
}

// Tree is an R-tree over point entries, immutable once BulkLoad or LoadFile
// has returned it. The zero value is not usable.
type Tree struct {
	max     int
	nodes   []node
	root    int32
	size    int
	height  int // levels, 1 for a lone leaf root
	backing *binio.FlatFile
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf root, 0 never).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity the tree was built with.
func (t *Tree) MaxEntries() int { return t.max }

// Bounds returns the bounding rectangle of all entries (the zero Rect for
// an empty tree).
func (t *Tree) Bounds() geom.Rect {
	if t.size == 0 {
		return geom.Rect{}
	}
	return t.nodes[t.root].rect
}

func pointRect(p geom.Point) geom.Rect {
	return geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// DistSq returns the squared Euclidean distance between two points.
func DistSq(p, q geom.Point) int64 {
	dx := int64(p.X) - int64(q.X)
	dy := int64(p.Y) - int64(q.Y)
	return dx*dx + dy*dy
}

// minDistSq returns the squared Euclidean distance from p to the nearest
// point of r — the classic MINDIST lower bound driving best-first browsing.
func minDistSq(p geom.Point, r geom.Rect) int64 {
	var dx, dy int64
	if p.X < r.MinX {
		dx = int64(r.MinX) - int64(p.X)
	} else if p.X > r.MaxX {
		dx = int64(p.X) - int64(r.MaxX)
	}
	if p.Y < r.MinY {
		dy = int64(r.MinY) - int64(p.Y)
	} else if p.Y > r.MaxY {
		dy = int64(p.Y) - int64(r.MaxY)
	}
	return dx*dx + dy*dy
}

// --- STR bulk load ------------------------------------------------------

// BulkLoad builds a tree over all entries with the Sort-Tile-Recursive
// packing of Leutenegger et al.: sort by x, cut into vertical slabs, sort
// each slab by y, pack runs of M entries per leaf, then repeat one level up
// over the leaf rectangles. Nodes come out near-full. The input slice is
// not retained and may be reused by the caller.
func BulkLoad(entries []Entry, opts Options) *Tree {
	m := opts.capacity()
	t := &Tree{max: m}
	if len(entries) == 0 {
		t.nodes = append(t.nodes, node{leaf: true})
		t.height = 1
		return t
	}
	ents := make([]Entry, len(entries))
	copy(ents, entries)
	// Deterministic build regardless of input order.
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].P.X != ents[j].P.X {
			return ents[i].P.X < ents[j].P.X
		}
		if ents[i].P.Y != ents[j].P.Y {
			return ents[i].P.Y < ents[j].P.Y
		}
		return ents[i].ID < ents[j].ID
	})
	t.size = len(ents)

	// Pack the leaf level.
	level := t.packLeaves(ents)
	t.height = 1
	// Pack internal levels until a single root remains.
	for len(level) > 1 {
		level = t.packInternal(level)
		t.height++
	}
	t.root = level[0]
	return t
}

// packLeaves tiles the sorted entries into leaves of up to max entries and
// returns the new node indices.
func (t *Tree) packLeaves(ents []Entry) []int32 {
	nLeaves := (len(ents) + t.max - 1) / t.max
	slabs := intSqrtCeil(nLeaves)
	slabSize := slabs * t.max // entries per vertical slab
	var out []int32
	for lo := 0; lo < len(ents); lo += slabSize {
		hi := lo + slabSize
		if hi > len(ents) {
			hi = len(ents)
		}
		slab := ents[lo:hi]
		sort.Slice(slab, func(i, j int) bool {
			if slab[i].P.Y != slab[j].P.Y {
				return slab[i].P.Y < slab[j].P.Y
			}
			if slab[i].P.X != slab[j].P.X {
				return slab[i].P.X < slab[j].P.X
			}
			return slab[i].ID < slab[j].ID
		})
		for a := 0; a < len(slab); a += t.max {
			b := a + t.max
			if b > len(slab) {
				b = len(slab)
			}
			n := node{leaf: true, ents: append([]Entry(nil), slab[a:b]...)}
			n.rect = pointRect(n.ents[0].P)
			for _, e := range n.ents[1:] {
				n.rect = n.rect.Union(pointRect(e.P))
			}
			t.nodes = append(t.nodes, n)
			out = append(out, int32(len(t.nodes)-1))
		}
	}
	return out
}

// packInternal tiles one level of nodes (by rectangle center) into parent
// nodes and returns the parent indices.
func (t *Tree) packInternal(level []int32) []int32 {
	centerX := func(ni int32) int64 {
		r := t.nodes[ni].rect
		return int64(r.MinX) + int64(r.MaxX)
	}
	centerY := func(ni int32) int64 {
		r := t.nodes[ni].rect
		return int64(r.MinY) + int64(r.MaxY)
	}
	sort.Slice(level, func(i, j int) bool {
		if cx, cy := centerX(level[i]), centerX(level[j]); cx != cy {
			return cx < cy
		}
		return centerY(level[i]) < centerY(level[j])
	})
	nParents := (len(level) + t.max - 1) / t.max
	slabs := intSqrtCeil(nParents)
	slabSize := slabs * t.max
	var out []int32
	for lo := 0; lo < len(level); lo += slabSize {
		hi := lo + slabSize
		if hi > len(level) {
			hi = len(level)
		}
		slab := level[lo:hi]
		sort.Slice(slab, func(i, j int) bool {
			if cy, cx := centerY(slab[i]), centerY(slab[j]); cy != cx {
				return cy < cx
			}
			return centerX(slab[i]) < centerX(slab[j])
		})
		for a := 0; a < len(slab); a += t.max {
			b := a + t.max
			if b > len(slab) {
				b = len(slab)
			}
			n := node{kids: append([]int32(nil), slab[a:b]...)}
			n.rect = t.nodes[n.kids[0]].rect
			for _, k := range n.kids[1:] {
				n.rect = n.rect.Union(t.nodes[k].rect)
			}
			t.nodes = append(t.nodes, n)
			out = append(out, int32(len(t.nodes)-1))
		}
	}
	return out
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return n
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// --- queries ------------------------------------------------------------

// Search calls fn for every entry inside r (boundary inclusive), in an
// unspecified order, until fn returns false. It reports whether the scan
// ran to completion.
func (t *Tree) Search(r geom.Rect, fn func(Entry) bool) bool {
	if t.size == 0 {
		return true
	}
	return t.search(t.root, r, fn)
}

func (t *Tree) search(ni int32, r geom.Rect, fn func(Entry) bool) bool {
	n := &t.nodes[ni]
	if !n.rect.Intersects(r) {
		return true
	}
	if n.leaf {
		for _, e := range n.ents {
			if r.Contains(e.P) && !fn(e) {
				return false
			}
		}
		return true
	}
	for _, k := range n.kids {
		if !t.search(k, r, fn) {
			return false
		}
	}
	return true
}

// SearchRadius calls fn with every entry within Euclidean distance radius
// of p (boundary inclusive) and its squared distance, in an unspecified
// order, until fn returns false.
func (t *Tree) SearchRadius(p geom.Point, radius int64, fn func(Entry, int64) bool) bool {
	if t.size == 0 || radius < 0 {
		return true
	}
	// The radius comes from clients: saturate its square, which wraps from
	// ceil(sqrt(MaxInt64)) up and would then match nothing.
	rr := int64(math.MaxInt64)
	if radius < 3037000500 {
		rr = radius * radius
	}
	return t.searchRadius(t.root, p, rr, fn)
}

func (t *Tree) searchRadius(ni int32, p geom.Point, rr int64, fn func(Entry, int64) bool) bool {
	n := &t.nodes[ni]
	if minDistSq(p, n.rect) > rr {
		return true
	}
	if n.leaf {
		for _, e := range n.ents {
			if d := DistSq(p, e.P); d <= rr && !fn(e, d) {
				return false
			}
		}
		return true
	}
	for _, k := range n.kids {
		if !t.searchRadius(k, p, rr, fn) {
			return false
		}
	}
	return true
}

// Nearest returns the entry nearest to p by Euclidean distance (ties
// broken by smaller ID) and its squared distance. ok is false on an empty
// tree.
func (t *Tree) Nearest(p geom.Point) (e Entry, distSq int64, ok bool) {
	b := t.NewBrowser(p)
	return b.Next()
}

// Browser enumerates entries in order of increasing Euclidean distance
// from a query point — Hjaltason & Samet's incremental best-first browsing
// over MINDIST-ordered node rectangles, the geometric analogue of the
// paper's distance browsing (Appendix A). A Browser holds the per-query
// priority queue; it is cheap to create and must not be shared across
// goroutines.
type Browser struct {
	t    *Tree
	p    geom.Point
	heap []browseItem
}

// browseItem is a heap element: an entry (node == -1) keyed by its exact
// squared distance, or a node keyed by the MINDIST of its rectangle.
type browseItem struct {
	key  int64
	node int32 // -1: ent is an entry; otherwise a node index
	ent  Entry
}

// less orders the browse heap by (key, nodes-before-entries, entry ID).
// Expanding nodes before emitting equal-key entries keeps the output in
// strict (distance, ID) order even when an unexpanded node could still
// yield an equal-distance entry with a smaller ID.
func (b *Browser) less(x, y browseItem) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	xe, ye := x.node < 0, y.node < 0
	if xe != ye {
		return ye // node sorts before entry at equal key
	}
	if xe {
		return x.ent.ID < y.ent.ID
	}
	return x.node < y.node
}

// NewBrowser starts an incremental nearest-neighbor scan from p.
func (t *Tree) NewBrowser(p geom.Point) *Browser {
	b := &Browser{t: t, p: p}
	if t.size > 0 {
		b.push(browseItem{key: minDistSq(p, t.nodes[t.root].rect), node: t.root})
	}
	return b
}

// Next returns the next entry in (distance, ID) order, its squared
// distance, and false once the tree is exhausted.
func (b *Browser) Next() (Entry, int64, bool) {
	for len(b.heap) > 0 {
		it := b.pop()
		if it.node < 0 {
			return it.ent, it.key, true
		}
		n := &b.t.nodes[it.node]
		if n.leaf {
			for _, e := range n.ents {
				b.push(browseItem{key: DistSq(b.p, e.P), node: -1, ent: e})
			}
		} else {
			for _, k := range n.kids {
				b.push(browseItem{key: minDistSq(b.p, b.t.nodes[k].rect), node: k})
			}
		}
	}
	return Entry{}, 0, false
}

func (b *Browser) push(it browseItem) {
	b.heap = append(b.heap, it)
	i := len(b.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(b.heap[i], b.heap[parent]) {
			break
		}
		b.heap[i], b.heap[parent] = b.heap[parent], b.heap[i]
		i = parent
	}
}

func (b *Browser) pop() browseItem {
	top := b.heap[0]
	last := len(b.heap) - 1
	b.heap[0] = b.heap[last]
	b.heap = b.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(b.heap) {
			break
		}
		c := l
		if r < len(b.heap) && b.less(b.heap[r], b.heap[l]) {
			c = r
		}
		if !b.less(b.heap[c], b.heap[i]) {
			break
		}
		b.heap[i], b.heap[c] = b.heap[c], b.heap[i]
		i = c
	}
	return top
}
