package pcpd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"roadnet/internal/gen"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// refDecomposer is the decomposition as Appendix D states it and as Build
// ran it before path labels: serial, with the nested-loop common-element
// test that walks every pair's path and intersects eagerly. It is the
// reference Build's tree is compared against.
type refDecomposer struct {
	*shared // without labels

	vertStamp []uint32
	edgeStamp []uint32 // directed: edgeID*2 + dir
	gen       uint32

	sharedVerts []graph.VertexID
	sharedEdges []int64

	numNodes, numPairs int64
}

// refBuild returns the reference index of g.
func refBuild(g *graph.Graph) *Index {
	n := g.NumVertices()
	ix := newIndex(g, 16)
	d := &refDecomposer{
		shared:    &shared{ix: ix, n: n, hop: buildFirstHops(g, 1), order: mortonOrder(ix.code)},
		vertStamp: make([]uint32, n),
		edgeStamp: make([]uint32, 2*g.NumEdges()),
	}
	all := quad{0, ix.norm.CodeSpaceSize(), 0, n}
	ix.root = d.decompose(all, all)
	ix.numNodes, ix.numPairs = d.numNodes, d.numPairs
	return ix
}

func (d *refDecomposer) decompose(a, b quad) *node {
	if a.empty() || b.empty() {
		return nil
	}
	if a.idxHi-a.idxLo == 1 && b.idxHi-b.idxLo == 1 && d.order[a.idxLo] == d.order[b.idxLo] {
		return nil
	}
	d.numNodes++
	if psi, ok := d.coherent(a, b); ok {
		d.numPairs++
		return &node{kind: kindLeaf, psi: psi}
	}
	switch {
	case a.splittable() && b.splittable():
		nd := &node{kind: kindSplit16, children: make([]*node, 16)}
		for qa := uint64(0); qa < 4; qa++ {
			for qb := uint64(0); qb < 4; qb++ {
				nd.children[qa*4+qb] = d.decompose(d.child(a, qa), d.child(b, qb))
			}
		}
		return nd
	case a.splittable():
		nd := &node{kind: kindSplitA, children: make([]*node, 4)}
		for qa := uint64(0); qa < 4; qa++ {
			nd.children[qa] = d.decompose(d.child(a, qa), b)
		}
		return nd
	case b.splittable():
		nd := &node{kind: kindSplitB, children: make([]*node, 4)}
		for qb := uint64(0); qb < 4; qb++ {
			nd.children[qb] = d.decompose(a, d.child(b, qb))
		}
		return nd
	default:
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
}

// walkPath invokes fn for every arc of the canonical shortest path s -> t,
// or returns false when unreachable.
func (d *refDecomposer) walkPath(s, t graph.VertexID, fn func(from graph.VertexID, arc int32)) bool {
	g := d.ix.g
	cur := s
	for cur != t {
		slot := d.hop[int(cur)*d.n+int(t)]
		if slot == noHop {
			return false
		}
		lo, _ := g.ArcsOf(cur)
		a := lo + int32(slot)
		fn(cur, a)
		cur = g.Head(a)
	}
	return true
}

// coherent is the nested-loop test: it keeps the elements shared by all
// paths seen so far and gives up when none is left. A common edge is
// preferred; otherwise a vertex interior to every pair's path is required.
func (d *refDecomposer) coherent(a, b quad) (psiValue, bool) {
	g := d.ix.g
	first := true
	anyPath := false
	for i := a.idxLo; i < a.idxHi; i++ {
		for j := b.idxLo; j < b.idxHi; j++ {
			s, t := d.order[i], d.order[j]
			if s == t {
				continue
			}
			if first {
				// Seed the shared sets with the first pair's path.
				d.sharedVerts = d.sharedVerts[:0]
				d.sharedEdges = d.sharedEdges[:0]
				ok := d.walkPath(s, t, func(from graph.VertexID, arc int32) {
					to := g.Head(arc)
					dir := int64(0)
					if e := d.ix.edges[g.EdgeIDOf(arc)]; e.U != from {
						dir = 1
					}
					d.sharedEdges = append(d.sharedEdges, int64(g.EdgeIDOf(arc))<<1|dir)
					if to != t {
						d.sharedVerts = append(d.sharedVerts, to)
					}
				})
				if !ok {
					// An unreachable pair can only be coherent if *no*
					// pair has a path (psiNone); any path elsewhere fails.
					d.sharedVerts = d.sharedVerts[:0]
					d.sharedEdges = d.sharedEdges[:0]
				} else {
					anyPath = true
				}
				first = false
				continue
			}
			// Mark this pair's path elements, then intersect.
			d.gen++
			ok := d.walkPath(s, t, func(from graph.VertexID, arc int32) {
				to := g.Head(arc)
				dir := uint32(0)
				if e := d.ix.edges[g.EdgeIDOf(arc)]; e.U != from {
					dir = 1
				}
				d.edgeStamp[uint32(g.EdgeIDOf(arc))*2+dir] = d.gen
				if to != t {
					d.vertStamp[to] = d.gen
				}
			})
			if ok {
				anyPath = true
			}
			// Interior vertices must also exclude this pair's endpoints.
			d.vertStamp[s] = 0
			d.vertStamp[t] = 0
			keepV := d.sharedVerts[:0]
			keepE := d.sharedEdges[:0]
			if ok {
				for _, v := range d.sharedVerts {
					if d.vertStamp[v] == d.gen {
						keepV = append(keepV, v)
					}
				}
				for _, e := range d.sharedEdges {
					if d.edgeStamp[e] == d.gen {
						keepE = append(keepE, e)
					}
				}
			}
			d.sharedVerts = keepV
			d.sharedEdges = keepE
			if anyPath && len(d.sharedVerts) == 0 && len(d.sharedEdges) == 0 {
				return 0, false
			}
		}
	}
	if !anyPath {
		return psiNone, true
	}
	if len(d.sharedEdges) > 0 {
		return psiEdgeFlag | d.sharedEdges[0], true
	}
	if len(d.sharedVerts) > 0 {
		return int64(d.sharedVerts[0]), true
	}
	return 0, false
}

func (d *refDecomposer) pairPsi(s, t graph.VertexID) psiValue {
	g := d.ix.g
	var arcs []int32
	ok := d.walkPath(s, t, func(_ graph.VertexID, arc int32) { arcs = append(arcs, arc) })
	if !ok {
		return psiNone
	}
	if len(arcs) == 1 {
		return d.edgePsi(s, arcs[0])
	}
	return int64(g.Head(arcs[len(arcs)/2-1]))
}

// treeDigest hashes everything a query can observe of a tree: node kinds,
// ψ, children by slot (nil ones included) and collision tables sorted by
// pair.
func treeDigest(root *node) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd == nil {
			put(-2)
			return
		}
		put(int64(nd.kind))
		put(nd.psi)
		put(int64(len(nd.children)))
		for _, c := range nd.children {
			walk(c)
		}
		keys := make([][2]graph.VertexID, 0, len(nd.table))
		for k := range nd.table {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		put(int64(len(keys)))
		for _, k := range keys {
			put(int64(k[0]))
			put(int64(k[1]))
			put(nd.table[k])
		}
	}
	walk(root)
	return h.Sum64()
}

// messyGraph returns a seeded random graph made to be awkward for the
// decomposition: several components of different density (ψ = none and
// mixed pairs of squares), isolated vertices, parallel edges of different
// weight (an edge ψ must name the right one), long runs of unit-weight
// edges (ties between equally short paths) and vertices stacked on one
// point, some of them across components (collision tables).
func messyGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(0)
	point := func() geom.Point {
		return geom.Point{X: int32(rng.Intn(1 << 10)), Y: int32(rng.Intn(1 << 10))}
	}
	var pts []geom.Point
	add := func(p geom.Point) {
		pts = append(pts, p)
		b.AddVertex(p)
	}
	stack := point()
	for c := 2 + rng.Intn(3); c > 0; c-- {
		base := b.NumVertices()
		size := 1 + rng.Intn(60)
		maxWeight := 1
		if rng.Intn(3) > 0 {
			maxWeight = 1 + rng.Intn(40)
		}
		for i := 0; i < size; i++ {
			switch k := rng.Intn(8); {
			case k == 0:
				add(stack)
			case k == 1 && i > 0:
				add(pts[base+rng.Intn(i)])
			default:
				add(point())
			}
		}
		edge := func(u, v int) {
			if u != v {
				_ = b.AddEdge(graph.VertexID(base+u), graph.VertexID(base+v), graph.Weight(1+rng.Intn(maxWeight)))
			}
		}
		for v := 1; v < size; v++ {
			edge(v, rng.Intn(v))
		}
		for i := rng.Intn(2 * size); i > 0; i-- {
			u, v := rng.Intn(size), rng.Intn(size)
			edge(u, v)
			if rng.Intn(4) == 0 {
				edge(v, u) // parallel edge, independently weighted
			}
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		add(stack) // isolated
	}
	return b.Build()
}

// TestBuildMatchesReference requires Build's tree, whatever the worker
// count, to be the reference's: same digest, same counts, same size.
func TestBuildMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for seed := int64(1); seed <= 12; seed++ {
		graphs[fmt.Sprintf("messy%d", seed)] = messyGraph(seed)
	}
	de, err := gen.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	graphs["DE"] = de
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := refBuild(g)
			want := treeDigest(ref.root)
			for _, workers := range []int{1, 2, 8} {
				ix, err := Build(g, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := treeDigest(ix.root); got != want {
					t.Errorf("workers=%d: tree digest %016x, reference %016x", workers, got, want)
				}
				if ix.NumNodes() != ref.NumNodes() || ix.NumPairs() != ref.NumPairs() || ix.SizeBytes() != ref.SizeBytes() {
					t.Errorf("workers=%d: %d nodes, %d pairs, %d bytes; reference %d, %d, %d", workers,
						ix.NumNodes(), ix.NumPairs(), ix.SizeBytes(), ref.NumNodes(), ref.NumPairs(), ref.SizeBytes())
				}
			}
		})
	}
}

// TestCoherenceWorkCount gates the work of the common-element test as a
// count: path-membership checks per ordered vertex pair, 2.0 on DE and 2.5
// on NH. The nested loop it replaced made about 45 on NH; trying a witness
// without first trying the pair its predecessor missed makes 3.9 and 4.9.
func TestCoherenceWorkCount(t *testing.T) {
	presets := []string{"DE"}
	if !testing.Short() {
		presets = append(presets, "NH")
	}
	for _, name := range presets {
		g, err := gen.GeneratePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		var checks int64
		for _, workers := range []int{1, 3} {
			ix, err := Build(g, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if checks != 0 && ix.checks != checks {
				t.Errorf("%s: %d checks with %d workers, %d with one", name, ix.checks, workers, checks)
			}
			checks = ix.checks
		}
		n := int64(g.NumVertices())
		perPair := float64(checks) / float64(n*(n-1))
		t.Logf("%s: %d checks, %.2f per ordered pair", name, checks, perPair)
		if perPair > 3 {
			t.Errorf("%s: %.2f membership checks per ordered vertex pair, want at most 3", name, perPair)
		}
	}
}
