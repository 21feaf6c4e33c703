package tnr

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/workload"
)

// refDistance is Equation 1 as the walk's parent evaluated it: the full
// A(s) × A(t) sweep, reading T[a][b] — row a, where minPlus reads row b.
func refDistance(l *layer, s, t graph.VertexID) int64 {
	best := graph.Infinity
	for i, a := range l.cellAN[l.cellOf[s]] {
		for j, b := range l.cellAN[l.cellOf[t]] {
			ds, dt := l.vaDist[s][i], l.vaDist[t][j]
			if ds == invalidDist || dt == invalidDist {
				continue
			}
			var mid int32 = invalidDist
			if l.table != nil {
				mid = l.table[int(a)*len(l.anList)+int(b)]
			} else if k, ok := slices.BinarySearch(l.sparsePartner[a], b); ok {
				mid = l.sparseDist[a][k]
			}
			if mid != invalidDist {
				best = min(best, int64(ds)+int64(mid)+int64(dt))
			}
		}
	}
	return best
}

// refWork is what one reference walk cost.
type refWork struct{ evals, cells int }

// refWalk is the table walk of this package before the tail memo, kept as
// the reference: at every hop each neighbour, the vertex just left
// included, pays a full Equation 1 sweep, and the first one that closes the
// remaining distance is next. fb streams the local remainder.
func refWalk(ix *Index, fb *Searcher, s, t graph.VertexID) ([]graph.VertexID, int64, refWork, error) {
	var work refWork
	tableDist := func(v graph.VertexID) int64 {
		l := ix.tableLayer(v, t)
		work.evals++
		work.cells += len(l.cellAN[l.cellOf[v]]) * len(l.cellAN[l.cellOf[t]])
		return refDistance(l, v, t)
	}
	remaining := tableDist(s)
	work.evals = 0 // the sweep for dist(s, t) reads cells but evaluates no neighbour
	if remaining >= graph.Infinity {
		return nil, graph.Infinity, work, nil
	}
	total, path := remaining, []graph.VertexID{s}
	for cur := s; cur != t; {
		next, local := graph.VertexID(-1), !ix.CanAnswerFromTables(cur, t)
		var weight int64
		lo, hi := ix.g.ArcsOf(cur)
		for a := lo; a < hi && !local && next < 0; a++ {
			v, w := ix.g.Head(a), int64(ix.g.ArcWeight(a))
			switch {
			case ix.CanAnswerFromTables(v, t):
				if w+tableDist(v) == remaining {
					next, weight = v, w
				}
			case v != t:
				local = true
			case w == remaining:
				next, weight = v, w
			}
		}
		if local || next < 0 {
			rest, d := testutil.Path(fb.chSearch.OpenPath, cur, t)
			if d != remaining {
				return nil, 0, work, fmt.Errorf("reference walk %d->%d: fallback says %d from %d, tables %d", s, t, d, cur, remaining)
			}
			return append(path, rest[1:]...), total, work, nil
		}
		path = append(path, next)
		cur, remaining = next, remaining-weight
	}
	return path, total, work, nil
}

// drainWalk answers one path query through OpenPath.
func drainWalk(t *testing.T, sr *Searcher, s, tgt graph.VertexID) ([]graph.VertexID, int64) {
	t.Helper()
	it, d, err := sr.OpenPath(context.Background(), s, tgt)
	if err != nil {
		t.Fatalf("OpenPath(%d, %d): %v", s, tgt, err)
	}
	if it == nil {
		return nil, d
	}
	path, err := graph.AppendPath(nil, it)
	if err != nil {
		t.Fatalf("draining OpenPath(%d, %d): %v", s, tgt, err)
	}
	return path, d
}

// eachWalkIndex builds every (grid size, hybrid) index of the matrix over g.
func eachWalkIndex(t *testing.T, g *graph.Graph, fn func(ix *Index)) {
	h := testutil.Must(ch.Build(g, ch.Options{}))
	for _, grid := range []int{4, 8, 32} {
		for _, hybrid := range []bool{false, true} {
			ix, err := Build(g, h, Options{GridSize: grid, Hybrid: hybrid})
			if err != nil {
				t.Fatal(err)
			}
			fn(ix)
		}
	}
}

// checkWalks compares the drained OpenPath of sr with the reference walk on
// every table-answerable pair, vertex for vertex, and returns how many
// there were.
func checkWalks(t *testing.T, ix *Index, sr, fb *Searcher, pairs [][2]graph.VertexID) (walked int) {
	t.Helper()
	for _, p := range pairs {
		if !ix.CanAnswerFromTables(p[0], p[1]) {
			continue
		}
		walked++
		want, wantDist, _, err := refWalk(ix, fb, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, gotDist := drainWalk(t, sr, p[0], p[1])
		if gotDist != wantDist || !slices.Equal(got, want) {
			t.Fatalf("walk %d->%d: length %d, path %v; reference %d, %v", p[0], p[1], gotDist, got, wantDist, want)
		}
	}
	return walked
}

// TestWalkMatchesReference holds the memoized walk to the walk it replaced:
// the same path, vertex for vertex, on every table-answerable pair of a
// seeded sample, all of them asked of one searcher so that a memo surviving
// from one walk into the next shows.
func TestWalkMatchesReference(t *testing.T) {
	for name, g := range testutil.Graphs(t) {
		pairs, walked := testutil.SamplePairs(g, 150, 701), 0
		eachWalkIndex(t, g, func(ix *Index) {
			walked += checkWalks(t, ix, ix.NewSearcher(), ix.NewSearcher(), pairs)
		})
		t.Logf("%s: %d walks compared", name, walked)
		if walked == 0 {
			t.Errorf("%s: no pair of the sample walks on any index", name)
		}
	}
}

// TestWalkMemoGenerationWrap takes one searcher's memo stamps across the
// uint32 wrap with the stamps of earlier walks left in place: the first walk
// after the wrap is stamped 1 again, like the first walk of all, and starts
// from the same source towards another target, so without the clear on wrap
// it would read that walk's tails.
func TestWalkMemoGenerationWrap(t *testing.T) {
	g := testutil.SmallRoad(1600, 71)
	ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{})), Options{GridSize: 16, Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]graph.VertexID
	for _, p := range testutil.SamplePairs(g, 400, 709) {
		if ix.coarse.localityPasses(p[0], p[1]) {
			pairs = append(pairs, p)
		}
	}
	first := pairs[0]
	second := [2]graph.VertexID{first[0], -1}
	for v := graph.VertexID(0); second[1] < 0; v++ {
		if v != first[1] && ix.coarse.localityPasses(first[0], v) {
			second[1] = v
		}
	}
	sr, fb := ix.NewSearcher(), ix.NewSearcher()
	checkWalks(t, ix, sr, fb, [][2]graph.VertexID{first})
	if sr.memo[0].gen != 1 {
		t.Fatalf("first walk stamped %d, want 1", sr.memo[0].gen)
	}
	sr.memo[0].gen = math.MaxUint32
	checkWalks(t, ix, sr, fb, [][2]graph.VertexID{second})
	if sr.memo[0].gen != 1 {
		t.Fatalf("stamp %d did not wrap to 1", sr.memo[0].gen)
	}
	checkWalks(t, ix, sr, fb, pairs)
}

// TestNonHybridHasNoFineLayer: a non-hybrid index has access nodes on its
// one grid and no fine layer.
func TestNonHybridHasNoFineLayer(t *testing.T) {
	g := testutil.SmallRoad(900, 101)
	ix := testutil.Must(Build(g, testutil.Must(ch.Build(g, ch.Options{})), Options{GridSize: 16}))
	if len(ix.coarse.anList) == 0 {
		t.Error("expected access nodes on the coarse grid")
	}
	if ix.fine != nil {
		t.Error("non-hybrid index should have no fine layer")
	}
}

// TestPairTablesSymmetric pins what minPlus relies on when it reads T[b][a]
// for T[a][b]: both the dense table and the sparse table of a hybrid's fine
// layer are symmetric, entry for entry.
func TestPairTablesSymmetric(t *testing.T) {
	for name, g := range testutil.Graphs(t) {
		ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{})), Options{GridSize: 8, Hybrid: true})
		if err != nil {
			t.Fatal(err)
		}
		n := len(ix.coarse.anList)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if a, b := ix.coarse.table[i*n+j], ix.coarse.table[j*n+i]; a != b {
					t.Fatalf("%s: dense T[%d][%d] = %d, T[%d][%d] = %d", name, i, j, a, j, i, b)
				}
			}
		}
		fine, entries := ix.fine, 0
		for i, partners := range fine.sparsePartner {
			for k, j := range partners {
				back, ok := slices.BinarySearch(fine.sparsePartner[j], int32(i))
				if !ok || fine.sparseDist[j][back] != fine.sparseDist[i][k] {
					t.Fatalf("%s: sparse T[%d][%d] = %d has no equal T[%d][%d]", name, i, j, fine.sparseDist[i][k], j, i)
				}
				entries++
			}
		}
		if name == "DE" && (n == 0 || entries == 0) {
			t.Errorf("DE: %d dense rows, %d sparse entries: nothing compared", n, entries)
		}
	}
}

// TestWalkWorkCount pins the work of the table walk on the pairs the
// benchmark's slowest cell asks: the 500 Q10 pairs of seed 1 on NH, default
// options. The counts are exact — the index, the pairs and the walk are
// deterministic — so any change to them is a change to the algorithm and
// belongs in the same commit as the new numbers. The reference walk beside
// it is the cost this package paid before the tail memo.
func TestWalkWorkCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the NH index")
	}
	g, err := gen.GeneratePreset("NH")
	if err != nil {
		t.Fatal(err)
	}
	sets, err := workload.LInfSets(g, workload.Config{PairsPerSet: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{})), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr, fb := ix.NewSearcher(), ix.NewSearcher()
	var lookups, fills, evals, vertices int
	var ref refWork
	q10 := sets[len(sets)-1].Pairs
	for _, p := range q10 {
		path, _ := drainWalk(t, sr, p.S, p.T)
		lookups += sr.LookupsLast()
		fills += sr.LookupsLast() / len(sr.memo[0].tgt.row)
		evals += sr.walk.evals
		vertices += len(path)
		_, _, work, err := refWalk(ix, fb, p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		ref.evals += work.evals
		ref.cells += work.cells
	}
	n := float64(len(q10))
	t.Logf("per path query: %.2f vertices, %.1f neighbour evaluations, %.1f tail fills, %.0f table cells (%.1f per vertex)",
		float64(vertices)/n, float64(evals)/n, float64(fills)/n, float64(lookups)/n, float64(lookups)/float64(vertices))
	t.Logf("reference walk:  %.1f neighbour evaluations, %.0f table cells (%.1f per vertex)",
		float64(ref.evals)/n, float64(ref.cells)/n, float64(ref.cells)/float64(vertices))
	const wantLookups, wantFills, wantEvals, wantVertices = 2370015, 127973, 40718, 28894
	if lookups != wantLookups || fills != wantFills || evals != wantEvals || vertices != wantVertices {
		t.Errorf("%d table cells in %d tail fills, %d neighbour evaluations, %d vertices; pinned %d, %d, %d, %d",
			lookups, fills, evals, vertices, wantLookups, wantFills, wantEvals, wantVertices)
	}
	if lookups > 100*vertices {
		t.Errorf("%d table cells for %d emitted vertices, want at most 100 per vertex", lookups, vertices)
	}
}

// TestTNRPathAllocs pins a far path drained through OpenPath at zero
// steady-state allocations: the table walk, its tail memos and the
// fallback's tail iterator all live in the searcher.
func TestTNRPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := testutil.SmallRoad(1600, 71)
	ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{})), Options{GridSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	pairs := testutil.SamplePairs(g, 400, 719)
	i := slices.IndexFunc(pairs, func(p [2]graph.VertexID) bool { return ix.CanAnswerFromTables(p[0], p[1]) })
	s, tgt := pairs[i][0], pairs[i][1]
	sr := ix.NewSearcher()
	want := dijkstra.NewContext(g).Distance(s, tgt)
	if _, d := drainWalk(t, sr, s, tgt); d != want {
		t.Fatalf("dist(%d, %d) = %d, want %d", s, tgt, d, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		it, _, _ := sr.OpenPath(context.Background(), s, tgt)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	})
	if allocs != 0 {
		t.Errorf("far path query: %.0f allocations, want 0", allocs)
	}
}
