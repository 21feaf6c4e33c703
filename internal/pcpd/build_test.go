package pcpd

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// psiValue is a ψ as the reference tree holds it and the golden digests
// hash it: a vertex id, psiNone, or psiEdgeFlag | edgeID<<1 | direction.
type psiValue = int64

const (
	psiNone     psiValue = -1
	psiEdgeFlag psiValue = 1 << 40
)

// psiOf returns the ψ of a leaf slot in the reference encoding; a nil slot
// is -2, as the digests hash it.
func psiOf(slot uint32) psiValue {
	switch slot & tagMask {
	case tagVertex:
		return psiValue(slot >> tagBits)
	case tagEdge:
		return psiEdgeFlag | psiValue(slot>>tagBits)
	case tagNone:
		return psiNone
	}
	return -2
}

type nodeKind uint8

// The values are what the golden tree digests hash; 2 and 3 were one-sided
// splits, which cannot occur (see decompose).
const (
	kindLeaf    nodeKind = 0 // a path-coherent pair: psi applies
	kindSplit16 nodeKind = 1 // both squares split: children[qa*4+qb]
	kindTable   nodeKind = 4 // same-cell coordinate collisions: per-pair psi
)

// node is a node of the reference tree: the decomposition held as
// pointers, with a map per collision table.
type node struct {
	kind     nodeKind
	psi      psiValue
	children []*node
	table    map[[2]graph.VertexID]psiValue
}

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

// buildOn builds g's index over a default hierarchy under GOMAXPROCS procs,
// the number of goroutines each stage of Build runs on.
func buildOn(t *testing.T, g *graph.Graph, procs int) *Index {
	t.Helper()
	h := testutil.Must(ch.Build(g, ch.Options{}))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ix, err := Build(g, h)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// refHops returns the target-major hop matrix Build decomposes, made the
// other way round: one sweep per source s, whose FirstHops row (the rule
// evaluated by a walk over tight arcs) is the column of s.
func refHops(g *graph.Graph) []uint8 {
	n := g.NumVertices()
	sw := testutil.Must(ch.Build(g, ch.Options{})).NewSweeper()
	hop := make([]uint8, n*n)
	row := make([]uint8, n)
	for s := 0; s < n; s++ {
		sw.Run(graph.VertexID(s))
		sw.FirstHops(row)
		for t, slot := range row {
			hop[t*n+s] = slot
		}
	}
	return hop
}

// refBuild returns the reference tree of g's hop matrix hop and an index
// without a tree that carries its codes and counts.
func refBuild(g *graph.Graph, hop []uint8) (*Index, *node) {
	n := g.NumVertices()
	ix := newIndex(g)
	d := &refDecomposer{
		shared:    &shared{ix: ix, n: n, hop: hop, order: mortonOrder(ix.code)},
		vertStamp: make([]uint32, n),
		edgeStamp: make([]uint32, 2*g.NumEdges()),
	}
	all := quad{0, 1 << (2 * quadBits), 0, n}
	root := d.decompose(all, all)
	ix.numNodes, ix.numPairs = d.numNodes, d.numPairs
	return ix, root
}

// refLookup is lookup over the reference tree: the ψ of the node covering
// (s, t), or -2 when no node does.
func refLookup(ix *Index, nd *node, s, t graph.VertexID) psiValue {
	span := uint64(1) << (2 * quadBits)
	cs, ct := uint64(ix.code[s]), uint64(ix.code[t])
	aLo, bLo := uint64(0), uint64(0)
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
	return -2
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
	case a.splittable() || b.splittable():
		panic("pcpd: squares of unequal span") // see Build's decompose
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
		slot := d.hop[int(t)*d.n+int(cur)]
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
		return psiOf(d.edgePsi(s, arcs[0]))
	}
	return int64(g.Head(arcs[len(arcs)/2-1]))
}

// digester hashes everything a query can observe of a tree, in the order
// the pointer tree's walk met it: node kinds, ψ, children by slot (nil ones
// included) and collision tables sorted by pair.
type digester struct{ h hash.Hash64 }

func (dg digester) put(v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	dg.h.Write(buf[:])
}

// node hashes the head of a node: its kind, ψ and number of children.
func (dg digester) node(kind nodeKind, psi psiValue, children int) {
	dg.put(int64(kind))
	dg.put(psi)
	dg.put(int64(children))
}

// refTreeDigest is the digest of a reference tree.
func refTreeDigest(root *node) uint64 {
	dg := digester{fnv.New64a()}
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd == nil {
			dg.put(-2)
			return
		}
		dg.node(nd.kind, nd.psi, len(nd.children))
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
		dg.put(int64(len(keys)))
		for _, k := range keys {
			dg.put(int64(k[0]))
			dg.put(int64(k[1]))
			dg.put(nd.table[k])
		}
	}
	walk(root)
	return dg.h.Sum64()
}

// treeDigest is the digest of ix's slot tree, equal to refTreeDigest of the
// pointer tree with the same shape and ψ. A collision table's pairs are the
// entries of the table run whose codes lie in the table's two squares.
func treeDigest(ix *Index) uint64 {
	dg := digester{fnv.New64a()}
	var walk func(slot uint32, aLo, bLo, span uint64)
	walk = func(slot uint32, aLo, bLo, span uint64) {
		switch slot & tagMask {
		case slotNil:
			dg.put(-2)
		case tagSplit:
			dg.node(kindSplit16, 0, 16)
			span /= 4
			for q := uint64(0); q < 16; q++ {
				walk(ix.slots[int(slot>>tagBits)*16+int(q)], aLo+q/4*span, bLo+q%4*span, span)
			}
			dg.put(0)
		case tagTable:
			dg.node(kindTable, 0, 0)
			in := func(v uint32, lo uint64) bool { c := uint64(ix.code[v]); return c >= lo && c < lo+span }
			var at []int
			for i, k := range ix.tableKeys {
				if in(k>>16, aLo) && in(k&0xffff, bLo) {
					at = append(at, i)
				}
			}
			dg.put(int64(len(at)))
			for _, i := range at {
				dg.put(int64(ix.tableKeys[i] >> 16))
				dg.put(int64(ix.tableKeys[i] & 0xffff))
				dg.put(psiOf(ix.tablePsi[i]))
			}
		default:
			dg.node(kindLeaf, psiOf(slot), 0)
			dg.put(0)
		}
	}
	walk(ix.root, 0, 0, 1<<(2*quadBits))
	return dg.h.Sum64()
}

// TestBuildMatchesReference requires Build's next hops to be the ones
// refHops finds from the source side, so the rule Build reads toward each
// target is held to the walk over tight arcs, and its tree, whatever
// GOMAXPROCS, to be the reference's: same digest, same counts, and the same
// ψ for every ordered vertex pair. NH's tree is left to TestGoldenDigests,
// as its reference decomposition takes about 18 s on 2 cores. The subtests
// run one after another, as GOMAXPROCS is process-wide.
func TestBuildMatchesReference(t *testing.T) {
	for name, g := range testutil.Graphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.NumVertices()
			hop := refHops(g)
			got, _ := buildTrees(testutil.Must(ch.Build(g, ch.Options{})), 2)
			for i := range hop {
				if got[i] != hop[i] {
					t.Fatalf("next hop %d -> %d is slot %d, FirstHops says %d", i%n, i/n, got[i], hop[i])
				}
			}
			if name == "NH" {
				return
			}
			ref, root := refBuild(g, hop)
			want := refTreeDigest(root)
			for _, procs := range []int{1, 2, 8} {
				ix := buildOn(t, g, procs)
				if got := treeDigest(ix); got != want {
					t.Errorf("GOMAXPROCS=%d: tree digest %016x, reference %016x", procs, got, want)
				}
				if ix.NumNodes() != ref.NumNodes() || ix.NumPairs() != ref.NumPairs() {
					t.Errorf("GOMAXPROCS=%d: %d nodes, %d pairs; reference %d, %d", procs,
						ix.NumNodes(), ix.NumPairs(), ref.NumNodes(), ref.NumPairs())
				}
				for s := graph.VertexID(0); s < graph.VertexID(n); s++ {
					for u := graph.VertexID(0); u < graph.VertexID(n); u++ {
						if s == u {
							continue
						}
						if got, want := psiOf(ix.lookup(s, u)), refLookup(ref, root, s, u); got != want {
							t.Fatalf("GOMAXPROCS=%d: lookup(%d, %d) = %d, reference %d", procs, s, u, got, want)
						}
					}
				}
			}
		})
	}
}

// TestGoldenDigests pins the trees, and with them the first-hop matrix they
// decompose: the canonical one of ch.Sweeper. A change of the rule or of
// the decomposition regenerates the table in the commit that argues why.
func TestGoldenDigests(t *testing.T) {
	testutil.GoldenDigests(t, map[string]uint64{
		"DE":      0x7d960ed9a6080ac1,
		"NH":      0x7b847f7e9c0244f0,
		"messy1":  0xa4d4baf5d2563ec7,
		"messy2":  0xf80bdae4a5ad1753,
		"messy3":  0x20cea31fc33bcd31,
		"messy4":  0x01f56abefb0a0a83,
		"messy5":  0x137be3f12c51c821,
		"messy6":  0x86b1c73ff1df3203,
		"messy7":  0xa55135ac8fa5fd4f,
		"messy8":  0x361d1a1697606adc,
		"messy9":  0xcf7933134c4e8b25,
		"messy10": 0x20a6ac0367576654,
		"messy11": 0xca13da39e665f1ab,
		"messy12": 0x6ea4303976b2c2e2,
	}, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
		ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})))
		if err != nil {
			t.Fatal(err)
		}
		return treeDigest(ix)
	})
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
		for _, procs := range []int{1, 3} {
			ix := buildOn(t, g, procs)
			if checks != 0 && ix.checks != checks {
				t.Errorf("%s: %d checks under GOMAXPROCS %d, %d under 1", name, ix.checks, procs, checks)
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

// TestSizeBytes pins the index size as the exact sum of its arrays: on NH
// the 60 056 520 B the pointer tree was estimated at are 7 400 056 B of
// slots, codes and edges.
func TestSizeBytes(t *testing.T) {
	want := map[string]int64{"DE": 1237120, "NH": 7400056}
	for _, name := range []string{"DE", "NH"} {
		if name == "NH" && testing.Short() {
			continue
		}
		g, err := gen.GeneratePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildOn(t, g, runtime.GOMAXPROCS(0))
		if got := ix.SizeBytes(); got != want[name] {
			t.Errorf("%s: %d bytes (%d slots, %d table entries), want %d", name, got, len(ix.slots), len(ix.tableKeys), want[name])
		}
	}
}

// TestSaveIndependentOfGOMAXPROCS requires the saved index to be the same
// bytes whatever the number of goroutines the build runs on: the fragments
// the queued tasks make are laid out by the tree, not by the schedule.
func TestSaveIndependentOfGOMAXPROCS(t *testing.T) {
	for _, g := range []*graph.Graph{testutil.MessyGraph(6), testutil.SmallRoad(600, 321)} {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			var buf bytes.Buffer
			if err := buildOn(t, g, procs).Save(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%d vertices: GOMAXPROCS=%d saves other bytes than GOMAXPROCS=1", g.NumVertices(), procs)
			}
		}
	}
}
