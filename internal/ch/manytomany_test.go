package ch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"roadnet/internal/cancel"
	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// randomVertices draws count vertex ids of an n-vertex graph, repeats
// allowed.
func randomVertices(rng *rand.Rand, n, count int) []graph.VertexID {
	out := make([]graph.VertexID, count)
	for i := range out {
		out[i] = graph.VertexID(rng.Intn(n))
	}
	return out
}

// m2mShapes returns the endpoint-list shapes every implementation of the
// bucket algorithm has to survive. The last two are regional: sources and
// targets within a few hops of one root, so forward searches fill their rows
// early and stop; and the same with one target in another component added,
// so no row is ever full and no search may stop.
func m2mShapes(rng *rand.Rand, g *graph.Graph) [][2][]graph.VertexID {
	n := g.NumVertices()
	pick := func(count int) []graph.VertexID { return randomVertices(rng, n, count) }
	many := 2 + rng.Intn(24)
	same := pick(many)
	dup := pick(many)
	dup[len(dup)-1] = dup[0]
	shared := pick(many)
	overlap := pick(many)
	overlap[rng.Intn(many)] = shared[rng.Intn(many)]
	shapes := [][2][]graph.VertexID{
		{pick(1), pick(1)},
		{pick(1), pick(many)},
		{pick(many), pick(1)},
		{pick(many), pick(3 * many)},
		{dup, dup[:many/2+1]}, // duplicate ids within and across lists
		{same, same},          // sources == targets
		{shared, overlap},     // one vertex in both lists
	}

	root := graph.VertexID(rng.Intn(n))
	ball := hopBall(g, root, 2*many)
	half := (len(ball) + 1) / 2
	sources, targets := ball[:half], ball[len(ball)-half:]
	shapes = append(shapes, [2][]graph.VertexID{sources, targets})

	inComponent := make([]bool, n)
	for _, v := range hopBall(g, root, n) {
		inComponent[v] = true
	}
	var far []graph.VertexID
	for v, in := range inComponent {
		if !in {
			far = append(far, graph.VertexID(v))
		}
	}
	if len(far) > 0 {
		at := rng.Intn(len(targets) + 1)
		targets = slices.Insert(slices.Clone(targets), at, far[rng.Intn(len(far))])
	}
	return append(shapes, [2][]graph.VertexID{sources, targets})
}

// hopBall lists up to count vertices of g in breadth-first order from root,
// root first.
func hopBall(g *graph.Graph, root graph.VertexID, count int) []graph.VertexID {
	ball := []graph.VertexID{root}
	seen := map[graph.VertexID]bool{root: true}
	for i := 0; i < len(ball) && len(ball) < count; i++ {
		lo, hi := g.ArcsOf(ball[i])
		for a := lo; a < hi && len(ball) < count; a++ {
			if w := g.Head(a); !seen[w] {
				seen[w] = true
				ball = append(ball, w)
			}
		}
	}
	return ball
}

// regionalBatch draws a side×side batch as the serve_batch workload does
// (bench/traffic.go): the vertices in a square around a random vertex, the
// square's half-width doubling from 1/16 of the map's extent until it holds
// 2·side of them, shuffled and split. A linear scan fills the square where
// the workload asks an R-tree.
func regionalBatch(rng *rand.Rand, g *graph.Graph, side int) (sources, targets []graph.VertexID) {
	bounds := g.Bounds()
	extent := max(bounds.Width(), bounds.Height())
	centre := g.Coord(graph.VertexID(rng.Intn(g.NumVertices())))
	var region []graph.VertexID
	for half := extent/16 + 1; len(region) < 2*side && half <= 2*extent; half *= 2 {
		region = region[:0]
		for v, p := range g.Coords() {
			dx, dy := int64(p.X)-int64(centre.X), int64(p.Y)-int64(centre.Y)
			if max(dx, -dx) <= half && max(dy, -dy) <= half {
				region = append(region, graph.VertexID(v))
			}
		}
	}
	rng.Shuffle(len(region), func(a, b int) { region[a], region[b] = region[b], region[a] })
	k := min(side, len(region)/2)
	return region[:k], region[k : 2*k]
}

var (
	caOnce      sync.Once
	caHierarchy *Hierarchy
	caErr       error
)

// buildCA builds the CA preset's hierarchy once per test binary, for the
// count gates and the benchmarks.
func buildCA(tb testing.TB) *Hierarchy {
	tb.Helper()
	caOnce.Do(func() {
		g, err := gen.GeneratePreset("CA")
		if err == nil {
			caHierarchy, err = Build(g, Options{})
		}
		caErr = err
	})
	if caErr != nil {
		tb.Fatal(caErr)
	}
	return caHierarchy
}

// oracleTable answers the matrix with one plain Dijkstra per source.
func oracleTable(g *graph.Graph, sources, targets []graph.VertexID) [][]int64 {
	ctx := dijkstra.NewContext(g)
	table := make([][]int64, len(sources))
	for i, s := range sources {
		ctx.Run([]graph.VertexID{s}, dijkstra.Options{})
		table[i] = make([]int64, len(targets))
		for j, t := range targets {
			table[i][j] = ctx.Dist(t)
		}
	}
	return table
}

// checkEach runs one streamed many-to-many through run and requires every
// finite cell of want exactly once, with its value, and nothing else.
func checkEach(t testing.TB, label string, want [][]int64, run func(fn func(si, ti int, d int64)) error) {
	t.Helper()
	seen := make(map[[2]int]int)
	err := run(func(si, ti int, d int64) {
		seen[[2]int{si, ti}]++
		if d != want[si][ti] || d == graph.Infinity {
			t.Errorf("%s: pair (%d, %d) reported %d, want %d", label, si, ti, d, want[si][ti])
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for si, row := range want {
		for ti, d := range row {
			wantCount := 1
			if d == graph.Infinity {
				wantCount = 0
			}
			if count := seen[[2]int{si, ti}]; count != wantCount {
				t.Errorf("%s: pair (%d, %d), distance %d, reported %d times, want %d", label, si, ti, d, count, wantCount)
			}
		}
	}
}

// TestManyToManyDifferential holds all three entry points to plain Dijkstra
// over awkward graphs and shapes. Every shape of a graph also runs through
// one scratch object in sequence, so a bucket, stamp or row cell that
// outlives its call shows up in the next one whatever sync.Pool does.
func TestManyToManyDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := testutil.MessyGraph(seed)
		h := testutil.Must(Build(g, Options{}))
		n := g.NumVertices()
		sc := newM2MScratch(n)
		for i, shape := range m2mShapes(rand.New(rand.NewSource(seed)), g) {
			sources, targets := shape[0], shape[1]
			label := fmt.Sprintf("seed %d shape %d (%dx%d)", seed, i, len(sources), len(targets))
			want := oracleTable(g, sources, targets)

			table, err := h.ManyToManyContext(context.Background(), sources, targets)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for si := range want {
				for ti := range want[si] {
					if table[si][ti] != want[si][ti] {
						t.Errorf("%s: table[%d][%d] = %d, want %d", label, si, ti, table[si][ti], want[si][ti])
					}
				}
			}
			checkEach(t, label+" each", want, func(fn func(si, ti int, d int64)) error {
				h.ManyToManyEach(sources, targets, fn)
				return nil
			})
			checkEach(t, label+" one scratch", want, func(fn func(si, ti int, d int64)) error {
				return sc.run(context.Background(), h, sources, targets, fn)
			})
		}
	}
}

// pollLimitedContext reports cancellation from the limit-th call of Err
// onwards, i.e. from a chosen cancel.Poll of the batch.
type pollLimitedContext struct {
	context.Context
	polls, limit int
}

func (c *pollLimitedContext) Err() error {
	c.polls++
	if c.polls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestManyToManyCancelledScratchStaysValid cancels a batch at every poll it
// makes — before any work, in the backward searches, in the forward
// searches — and requires the same scratch to answer the next batch
// correctly each time.
func TestManyToManyCancelledScratchStaysValid(t *testing.T) {
	g := testutil.SmallRoad(1200, 71)
	h := testutil.Must(Build(g, Options{}))
	rng := rand.New(rand.NewSource(72))
	nodes := randomVertices(rng, g.NumVertices(), 40)
	follow := m2mShapes(rng, g)[3]
	want := oracleTable(g, follow[0], follow[1])
	sc := newM2MScratch(g.NumVertices())
	forwardCancels := 0
	for limit := 1; ; limit++ {
		ctx := &pollLimitedContext{Context: context.Background(), limit: limit}
		emitted := false
		err := sc.run(ctx, h, nodes, nodes, func(si, ti int, d int64) { emitted = true })
		if err == nil {
			if limit < 4 {
				t.Fatalf("batch finished after %d polls; too small to be cancelled mid-way", limit)
			}
			break
		}
		if err != context.Canceled {
			t.Fatalf("limit %d: error %v, want context.Canceled", limit, err)
		}
		if sc.totalSettled%cancel.Interval != 0 {
			t.Fatalf("limit %d: cancelled after %d settles, not on a poll boundary", limit, sc.totalSettled)
		}
		if emitted {
			forwardCancels++
		}
		checkEach(t, fmt.Sprintf("after cancel at poll %d", limit), want, func(fn func(si, ti int, d int64)) error {
			return sc.run(context.Background(), h, follow[0], follow[1], fn)
		})
	}
	if forwardCancels == 0 {
		t.Fatal("no cancellation fell into the forward phase")
	}
}

// TestManyToManyGenerationWrap starts a batch just below the point where
// the search stamp wraps, with the stamps of an earlier batch still in
// place. The batches are built so that a missing clear on wrap shows: the
// search stamped i before the wrap starts at a vertex whose neighbour is the
// root of the search stamped i after it, so stale labels around the one
// root would pass for labels of the other.
func TestManyToManyGenerationWrap(t *testing.T) {
	g := testutil.SmallRoad(600, 5)
	h := testutil.Must(Build(g, Options{}))
	rng := rand.New(rand.NewSource(6))
	first := randomVertices(rng, g.NumVertices(), 20)
	second := randomVertices(rng, g.NumVertices(), 3) // stamped up to MaxUint32
	for _, v := range first {
		lo, _ := g.ArcsOf(v)
		second = append(second, g.Head(lo))
	}
	sources := randomVertices(rng, g.NumVertices(), 5)

	sc := newM2MScratch(g.NumVertices())
	check := func(label string, targets []graph.VertexID) {
		t.Helper()
		checkEach(t, label, oracleTable(g, sources, targets), func(fn func(si, ti int, d int64)) error {
			return sc.run(context.Background(), h, sources, targets, fn)
		})
	}
	check("before wrap", first)
	sc.q.Cur = math.MaxUint32 - 3
	check("across wrap", second)
	if sc.q.Cur >= math.MaxUint32-3 {
		t.Fatalf("stamp %d did not wrap", sc.q.Cur)
	}
	check("after wrap", first)
}

// TestSearcherGenerationWrap is the point-to-point searcher's counterpart of
// the test above: both sides' stamps cross the wrap.
func TestSearcherGenerationWrap(t *testing.T) {
	testutil.CheckAcrossGenerationWrap(t, func(g *graph.Graph) (testutil.DistanceFunc, func(uint32)) {
		s := testutil.Must(Build(g, Options{})).NewSearcher()
		return s.Distance, func(stamp uint32) { s.side[0].Cur, s.side[1].Cur = stamp, stamp }
	})
}

// TestManyToManyConcurrent shares one hierarchy, and so one scratch pool,
// between callers with different shapes; run it under -race.
func TestManyToManyConcurrent(t *testing.T) {
	g := testutil.SmallRoad(1500, 73)
	h := testutil.Must(Build(g, Options{}))
	shapes := m2mShapes(rand.New(rand.NewSource(74)), g)
	wants := make([][][]int64, len(shapes))
	for i, shape := range shapes {
		wants[i] = oracleTable(g, shape[0], shape[1])
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (worker + round) % len(shapes)
				table, err := h.ManyToManyContext(context.Background(), shapes[i][0], shapes[i][1])
				if err != nil {
					t.Error(err)
					return
				}
				for si := range wants[i] {
					for ti, want := range wants[i][si] {
						if table[si][ti] != want {
							t.Errorf("worker %d shape %d: table[%d][%d] = %d, want %d", worker, i, si, ti, table[si][ti], want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestManyToManyAllocs pins the steady-state cost of a 16×16 batch at its
// result: the row headers and the one array behind them.
func TestManyToManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := testutil.SmallRoad(2000, 41)
	h := testutil.Must(Build(g, Options{}))
	nodes := randomVertices(rand.New(rand.NewSource(42)), g.NumVertices(), 32)
	sources, targets := nodes[:16], nodes[16:]
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.ManyToManyContext(ctx, sources, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state ManyToManyContext(16x16) allocates %.0f times, want at most 2", allocs)
	}
}

// TestManyToManyStallCount is a count gate in the manner of core's
// TestKNNPruneWorkCount: over fixed roots on a fixed preset, the bucket deposits
// one upward search makes must stay at or below half its unstalled search
// space. The unstalled space is counted here, not by a switch in the
// algorithm: an upward Dijkstra run to exhaustion settles exactly the
// vertices reachable over upward arcs.
func TestManyToManyStallCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA hierarchy")
	}
	h := buildCA(t)
	g := h.Graph()
	roots := randomVertices(rand.New(rand.NewSource(7)), g.NumVertices(), 200)

	sc := newM2MScratch(g.NumVertices())
	if err := sc.run(context.Background(), h, roots[:1], roots, func(int, int, int64) {}); err != nil {
		t.Fatal(err)
	}
	deposits := len(sc.deposits)

	unstalled := 0
	seen := make([]int32, g.NumVertices())
	for i, root := range roots {
		mark := int32(i + 1)
		stack := []graph.VertexID{root}
		seen[root] = mark
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			unstalled++
			for a := h.firstUp[v]; a < h.firstUp[v+1]; a++ {
				if w := h.upHead[a]; seen[w] != mark {
					seen[w] = mark
					stack = append(stack, w)
				}
			}
		}
	}
	t.Logf("per upward search: %.1f deposits, %.1f vertices unstalled",
		float64(deposits)/float64(len(roots)), float64(unstalled)/float64(len(roots)))
	if 2*deposits > unstalled {
		t.Errorf("%d deposits for an unstalled search space of %d: stalling prunes less than half", deposits, unstalled)
	}
}

// TestManyToManySettledCount is the count gate of the per-row stop: over 64
// regional 16×16 batches on CA, drawn as the serve_batch workload draws
// them, the forward searches must pop at most half as many vertices as the
// backward searches, which run to exhaustion; without the stop the two are
// about equal. A wider batch runs first on the same scratch, so a bound
// taken over the scratch's whole row, rather than the batch's share of it,
// meets stale graph.Infinity cells and never stops a search.
func TestManyToManySettledCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA hierarchy")
	}
	h := buildCA(t)
	g := h.Graph()
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	sc := newM2MScratch(g.NumVertices())
	wide := randomVertices(rng, g.NumVertices(), 40)
	if err := sc.run(ctx, h, wide[:4], wide, func(int, int, int64) {}); err != nil {
		t.Fatal(err)
	}

	forward, backward := 0, 0
	for range 64 {
		sources, targets := regionalBatch(rng, g, 16)
		if err := sc.run(ctx, h, sources, targets, func(int, int, int64) {}); err != nil {
			t.Fatal(err)
		}
		pops := sc.totalSettled
		// The backward searches again, alone, count their share of the pops.
		sc.totalSettled = 0
		for ti, v := range targets {
			if err := sc.backward(ctx, h, v, int32(ti)); err != nil {
				t.Fatal(err)
			}
		}
		backward += sc.totalSettled
		forward += pops - sc.totalSettled
	}
	t.Logf("per batch: %.1f forward pops, %.1f backward pops (ratio %.2f)",
		float64(forward)/64, float64(backward)/64, float64(forward)/float64(backward))
	if 2*forward > backward {
		t.Errorf("forward searches popped %d vertices against %d backward: the per-row stop saves less than half", forward, backward)
	}
}

// decodeEnds reads a batch off fuzzer bytes: 1 + data[0]%32 sources, then
// 1 + data[1]%32 targets, each the next byte mod n (0 once the bytes run
// out). MessyGraph has fewer than 256 vertices, so a byte reaches every one.
func decodeEnds(data []byte, n int) (sources, targets []graph.VertexID) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	ns, nt := 1+at(0)%32, 1+at(1)%32
	ends := make([]graph.VertexID, ns+nt)
	for i := range ends {
		ends[i] = graph.VertexID(at(2+i) % n)
	}
	return ends[:ns], ends[ns:]
}

// FuzzManyToManyAgrees builds the hierarchy of a messy graph, with the
// default witness budget or one so tight that many shortcuts are
// superfluous, and holds a fuzzer-chosen batch to plain Dijkstra through
// ManyToManyContext, through ManyToManyEach (every finite cell exactly
// once) and through one scratch that answers the batch, its transpose and
// the batch again, so a row cell or bucket left behind by a batch of
// another width shows in the next one.
func FuzzManyToManyAgrees(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, tightBudget bool, ends []byte) {
		g := testutil.MessyGraph(seed)
		opts := Options{}
		if tightBudget {
			opts.WitnessSettleLimit = 4
		}
		h := testutil.Must(Build(g, opts))
		_, dist := allPairs(g)
		sources, targets := decodeEnds(ends, g.NumVertices())
		want := func(sources, targets []graph.VertexID) [][]int64 {
			table := make([][]int64, len(sources))
			for i, s := range sources {
				for _, v := range targets {
					table[i] = append(table[i], dist[s][v])
				}
			}
			return table
		}

		table, err := h.ManyToManyContext(context.Background(), sources, targets)
		if err != nil {
			t.Fatal(err)
		}
		if w := want(sources, targets); !slices.EqualFunc(table, w, slices.Equal) {
			t.Fatalf("ManyToManyContext(%v, %v) = %v, want %v", sources, targets, table, w)
		}
		checkEach(t, "each", want(sources, targets), func(fn func(si, ti int, d int64)) error {
			h.ManyToManyEach(sources, targets, fn)
			return nil
		})
		sc := newM2MScratch(g.NumVertices())
		for i, batch := range [][2][]graph.VertexID{{sources, targets}, {targets, sources}, {sources, targets}} {
			checkEach(t, fmt.Sprintf("one scratch, batch %d", i), want(batch[0], batch[1]), func(fn func(si, ti int, d int64)) error {
				return sc.run(context.Background(), h, batch[0], batch[1], fn)
			})
		}
	})
}
