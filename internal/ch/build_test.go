package ch

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/pq"
	"roadnet/internal/testutil"
)

// TestBuildDeterministic builds one graph twice and requires the same index
// byte for byte, and with it the same search spaces: the arc order of the
// upward CSR once followed Go's map iteration order, which made
// settled-vertex counts differ from build to build.
func TestBuildDeterministic(t *testing.T) {
	g := testutil.SmallRoad(1600, 31)
	a, b := testutil.Must(Build(g, Options{})), testutil.Must(Build(g, Options{}))
	var abuf, bbuf bytes.Buffer
	if err := a.Save(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Error("two builds of the same graph serialize differently")
	}
	sa, sb := a.NewSearcher(), b.NewSearcher()
	var settledA, settledB int
	for _, p := range testutil.SamplePairs(g, 400, 9) {
		sa.Distance(p[0], p[1])
		sb.Distance(p[0], p[1])
		settledA += sa.SettledLast()
		settledB += sb.SettledLast()
	}
	if settledA != settledB {
		t.Errorf("two builds settle %d and %d vertices over the same pairs", settledA, settledB)
	}
}

// savedBytes is what Save writes for h.
func savedBytes(t *testing.T, h *Hierarchy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildMatchesReference holds Build to the index refBuild produces,
// byte for byte, under every settle limit. The settle-limit-4 cells on the
// tie-heavy messy graphs are the sensitive ones: a binding limit makes the
// result depend on the order a search pushes equal distances, which is the
// order of the adjacency lists. Those cells and the default run with -short
// too; the larger graphs and the other limits do not (the reference is
// slow, fifteen times slower again under the race detector).
func TestBuildMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	presets := []string{"DE", "NH"}
	options := []Options{{}, {WitnessSettleLimit: 2}, {WitnessSettleLimit: 4}}
	if !testing.Short() {
		presets = append(presets, "CA")
		inputs = append(inputs, input{"n9000", gen.Generate(gen.Params{N: 9000, Seed: 104})})
		options = append(options, Options{WitnessSettleLimit: 1000})
	}
	for _, name := range presets {
		g, err := gen.GeneratePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, g})
	}
	for seed := int64(1); seed <= 40; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("messy%d", seed), testutil.MessyGraph(seed)})
	}
	for _, in := range inputs {
		for _, opts := range options {
			got, want := testutil.Must(Build(in.g, opts)), refBuild(in.g, opts)
			if got.numShortcuts != want.numShortcuts {
				t.Errorf("%s %+v: %d shortcuts, reference %d", in.name, opts, got.numShortcuts, want.numShortcuts)
			}
			if !bytes.Equal(savedBytes(t, got), savedBytes(t, want)) {
				t.Errorf("%s %+v: index differs from the reference build's", in.name, opts)
			}
		}
	}
}

// TestWitnessWorkCount pins the work of one CA build: the counts repeat
// exactly, so any change to the witness search's order or stops moves them.
// The reference build, refBuild, reads 142 073 simulations, 515 402
// searches, 12 088 891 settled and 155 592 445 entries scanned.
func TestWitnessWorkCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA hierarchy")
	}
	g, err := gen.GeneratePreset("CA")
	if err != nil {
		t.Fatal(err)
	}
	got := testutil.Must(Build(g, Options{})).work
	want := buildWork{simulations: 102_953, searches: 274_924, settled: 4_121_935, scanned: 19_364_093}
	if got != want {
		t.Errorf("CA build work %+v, want %+v", got, want)
	}
}

// TestWitnessGenerationWrap runs the witness search across the wrap of its
// label stamp: simulating every vertex of a messy graph must find the same
// shortcuts and do the same work from a fresh searcher as from one whose
// stamp wraps during the run. The wrapping searcher has first simulated
// every vertex in reverse order, from stamp 1 on, so when the wrap hands
// those stamps out again, the target marks of other searches carry them.
func TestWitnessGenerationWrap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := testutil.MessyGraph(seed)
		n := g.NumVertices()
		adj := make([][]halfEdge, n)
		for v := range adj {
			lo, hi := g.ArcsOf(graph.VertexID(v))
			for a := lo; a < hi; a++ {
				addOrImprove(&adj[v], halfEdge{to: g.Head(a), w: g.ArcWeight(a), middle: -1})
			}
		}
		simulateAll := func(ws *witnessSearcher) ([][]shortcut, buildWork) {
			ws.work = buildWork{}
			found := make([][]shortcut, n)
			for v := range found {
				ws.simulate(graph.VertexID(v))
				found[v] = slices.Clone(ws.shortcuts)
			}
			return found, ws.work
		}
		limit := Options{}.withDefaults().WitnessSettleLimit
		want, wantWork := simulateAll(newWitnessSearcher(n, adj, limit))

		ws := newWitnessSearcher(n, adj, limit)
		for v := n - 1; v >= 0; v-- {
			ws.simulate(graph.VertexID(v))
		}
		ws.q.Cur = math.MaxUint32 - 1
		got, gotWork := simulateAll(ws)
		if ws.q.Cur >= math.MaxUint32-1 {
			t.Fatalf("seed %d: %d searches did not wrap the stamp", seed, wantWork.searches)
		}
		if gotWork != wantWork {
			t.Errorf("seed %d: work %+v across the wrap, %+v fresh", seed, gotWork, wantWork)
		}
		for v := range want {
			if !slices.Equal(got[v], want[v]) {
				t.Errorf("seed %d: vertex %d needs shortcuts %v across the wrap, %v fresh", seed, v, got[v], want[v])
			}
		}
	}
}

// upArc returns the index of the upward arc from -> to, or -1.
func upArc(h *Hierarchy, from, to graph.VertexID) int32 {
	for a := h.firstUp[from]; a < h.firstUp[from+1]; a++ {
		if h.upHead[a] == to {
			return a
		}
	}
	return -1
}

// TestRanksUnique: every vertex has its own contraction rank.
func TestRanksUnique(t *testing.T) {
	h := testutil.Must(Build(testutil.SmallRoad(400, 47), Options{}))
	seen := make(map[int32]bool)
	for _, r := range h.rank {
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
	}
}

// TestShortcutHalvesAreUpwardArcs checks what lets upMiddle be the only
// record of a shortcut's middle: every shortcut (u, w) via m has m ranked
// below both ends, its halves (m, u) and (m, w) are arcs of m's row that
// middleOf resolves, and their weights add up to the shortcut's. Rows hold
// one arc per head, heads ascending.
func TestShortcutHalvesAreUpwardArcs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := testutil.MessyGraph(seed)
		h := testutil.Must(Build(g, Options{}))
		shortcuts := 0
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			for a := h.firstUp[u]; a < h.firstUp[u+1]; a++ {
				w := h.upHead[a]
				if a > h.firstUp[u] && h.upHead[a-1] >= w {
					t.Fatalf("seed %d: row %d heads %d, %d not strictly increasing", seed, u, h.upHead[a-1], w)
				}
				if h.rank[u] >= h.rank[w] {
					t.Fatalf("seed %d: arc %d->%d does not lead upward", seed, u, w)
				}
				m := h.upMiddle[a]
				if got, ok := h.middleOf(w, u); !ok || got != m {
					t.Fatalf("seed %d: middleOf(%d, %d) = %d, %v, want %d", seed, w, u, got, ok, m)
				}
				if m < 0 {
					continue
				}
				shortcuts++
				if h.rank[m] >= h.rank[u] {
					t.Fatalf("seed %d: shortcut %d->%d via %d, which is not ranked below %d", seed, u, w, m, u)
				}
				sum := int64(0)
				for _, end := range []graph.VertexID{u, w} {
					half := upArc(h, m, end)
					if half < 0 {
						t.Fatalf("seed %d: shortcut %d->%d via %d has no arc %d->%d", seed, u, w, m, m, end)
					}
					if got, ok := h.middleOf(m, end); !ok || got != h.upMiddle[half] {
						t.Fatalf("seed %d: middleOf(%d, %d) = %d, %v, want %d", seed, m, end, got, ok, h.upMiddle[half])
					}
					sum += int64(h.upWeight[half])
				}
				if sum != int64(h.upWeight[a]) {
					t.Fatalf("seed %d: shortcut %d->%d weighs %d, its halves via %d weigh %d", seed, u, w, h.upWeight[a], m, sum)
				}
			}
		}
		if shortcuts == 0 && h.numShortcuts > 0 {
			t.Errorf("seed %d: %d shortcuts built, none in the CSR", seed, h.numShortcuts)
		}
	}
}

// refBuild is Build as it was before the preprocessing rewrite, kept verbatim
// (names prefixed and the clock reading dropped, nothing else changed) as
// the reference the rewritten Build must reproduce byte for byte: every
// vertex simulated twice, contracted neighbors skipped one entry at a time,
// every witness search run to its budget, one stable sort over all final
// edges.
func refBuild(g *graph.Graph, opts Options) *Hierarchy {
	opts = opts.withDefaults()
	n := g.NumVertices()

	// Dynamic adjacency with parallel edges collapsed to minimum weight.
	adj := make([][]halfEdge, n)
	for v := 0; v < n; v++ {
		lo, hi := g.ArcsOf(graph.VertexID(v))
		for a := lo; a < hi; a++ {
			refAddOrImprove(&adj[v], halfEdge{to: g.Head(a), w: g.ArcWeight(a), middle: -1})
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
	ws := newRefWitnessSearcher(n, adj, contracted, opts.WitnessSettleLimit)

	priority := func(v graph.VertexID) int64 {
		needed := ws.simulate(v, nil)
		degree := 0
		for _, e := range adj[v] {
			if !contracted[e.to] {
				degree++
			}
		}
		ed := int64(needed - degree)
		return edgeDiffWeight*ed + deletedWeight*int64(deleted[v]) + depthWeight*int64(depth[v])
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
			refAddOrImprove(&adj[sc.u], halfEdge{to: sc.w, w: int32(sc.weight), middle: int32(v)})
			refAddOrImprove(&adj[sc.w], halfEdge{to: sc.u, w: int32(sc.weight), middle: int32(v)})
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

	return h
}

// refAddOrImprove inserts e into the adjacency list, or lowers the weight of an
// existing entry to the same endpoint.
func refAddOrImprove(list *[]halfEdge, e halfEdge) {
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

// refWitnessSearcher runs the local Dijkstra searches that decide, while
// contracting a vertex v, whether a neighbor pair (u, w) needs a shortcut:
// a shortcut is required iff no "witness" path from u to w that avoids v is
// at most as short as the path through v. The search is budgeted — if the
// budget runs out before a witness is found, the shortcut is added anyway,
// which can only cost space, never correctness.
type refWitnessSearcher struct {
	adj        [][]halfEdge
	contracted []bool
	limit      int

	dist []int64
	gen  []uint32
	cur  uint32
	heap *pq.Heap
}

func newRefWitnessSearcher(n int, adj [][]halfEdge, contracted []bool, limit int) *refWitnessSearcher {
	return &refWitnessSearcher{
		adj:        adj,
		contracted: contracted,
		limit:      limit,
		dist:       make([]int64, n),
		gen:        make([]uint32, n),
		heap:       pq.New(n),
	}
}

// simulate enumerates the shortcuts contraction of v would create. For each
// uncontracted neighbor pair (u, w) whose shortest connection runs through
// v, emit(u, w, d(u,v)+d(v,w)) is called (when emit is non-nil). The number
// of shortcuts is returned, so the same routine serves both the priority
// computation (emit == nil) and the actual contraction.
func (ws *refWitnessSearcher) simulate(v graph.VertexID, emit func(u, w graph.VertexID, weight int64)) int {
	// Collect uncontracted neighbors and the minimal weight to each.
	var nbs []halfEdge
	for _, e := range ws.adj[v] {
		if !ws.contracted[e.to] {
			nbs = append(nbs, e)
		}
	}
	if len(nbs) < 2 {
		return 0
	}
	count := 0
	for i, eu := range nbs {
		// One witness search from u covers all targets w.
		var maxTarget int64
		for j, ew := range nbs {
			if j != i {
				if int64(ew.w) > maxTarget {
					maxTarget = int64(ew.w)
				}
			}
		}
		budget := int64(eu.w) + maxTarget
		ws.search(eu.to, v, budget)
		for j := i + 1; j < len(nbs); j++ {
			ew := nbs[j]
			through := int64(eu.w) + int64(ew.w)
			if wd := ws.distOf(ew.to); wd <= through {
				continue // witness found: no shortcut needed
			}
			count++
			if emit != nil {
				emit(eu.to, ew.to, through)
			}
		}
	}
	return count
}

func (ws *refWitnessSearcher) distOf(v graph.VertexID) int64 {
	if ws.gen[v] != ws.cur {
		return graph.Infinity
	}
	return ws.dist[v]
}

// search runs a budgeted Dijkstra from s on the uncontracted residual graph,
// excluding vertex banned, stopping at distance > maxDist or after the
// settle limit.
func (ws *refWitnessSearcher) search(s, banned graph.VertexID, maxDist int64) {
	ws.cur++
	if ws.cur == 0 {
		for i := range ws.gen {
			ws.gen[i] = 0
		}
		ws.cur = 1
	}
	ws.heap.Clear()
	ws.gen[s] = ws.cur
	ws.dist[s] = 0
	ws.heap.Push(s, 0)
	settledCount := 0
	for !ws.heap.Empty() {
		v, d := ws.heap.Pop()
		if d > maxDist {
			return
		}
		settledCount++
		if settledCount > ws.limit {
			return
		}
		for _, e := range ws.adj[v] {
			if e.to == banned || ws.contracted[e.to] {
				continue
			}
			nd := d + int64(e.w)
			if nd > maxDist {
				continue
			}
			if ws.gen[e.to] != ws.cur {
				ws.gen[e.to] = ws.cur
				ws.dist[e.to] = nd
				ws.heap.Push(e.to, nd)
			} else if nd < ws.dist[e.to] && ws.heap.Contains(e.to) {
				ws.dist[e.to] = nd
				ws.heap.Push(e.to, nd)
			}
		}
	}
}
