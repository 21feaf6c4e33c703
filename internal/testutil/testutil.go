// Package testutil provides shared fixtures for the test suites of the
// query-technique packages: the paper's Figure 1 example network, small
// deterministic road networks, and helpers that check a technique's answers
// against Dijkstra ground truth.
package testutil

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"roadnet/internal/dijkstra"
	"roadnet/internal/gen"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// Must returns v, the result of a build the test cannot go on without, and
// panics on err: Must(ch.Build(g, opts)).
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// AllocBytesPerRun returns the mean number of bytes f allocates per call,
// over runs calls after one to warm up: testing.AllocsPerRun for sizes.
func AllocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TempFile writes data to a file called name in a fresh temporary
// directory and returns its path: these bytes as a file, for the loaders,
// which only open files.
func TempFile(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Figure-1 vertex ids, zero-based: V1 = paper's v1, etc.
const (
	V1 graph.VertexID = iota
	V2
	V3
	V4
	V5
	V6
	V7
	V8
)

// Figure1 builds the paper's running example (Figure 1): eight vertices,
// nine edges; (v2,v8) and (v6,v8) have weight 2, all other edges weight 1.
// The edge set is reconstructed from the paper's worked examples:
//   - contracting v1 yields shortcut c1 = (v3, v8) with weight 2 (§3.2),
//   - contracting v5 yields c2 = (v7, v6) weight 2, then v6 yields
//     c3 = (v7, v8) weight 4,
//   - dist(v3, v7) = 6 and the SILC partition of V \ {v8} groups
//     {v4, v5, v6, v7} behind v6 and {v1, v3} behind v1 (§3.4).
func Figure1() *graph.Graph {
	coords := []geom.Point{
		{X: 1, Y: 2}, // v1
		{X: 1, Y: 0}, // v2
		{X: 0, Y: 1}, // v3
		{X: 5, Y: 0}, // v4
		{X: 5, Y: 2}, // v5
		{X: 4, Y: 1}, // v6
		{X: 6, Y: 2}, // v7
		{X: 2, Y: 1}, // v8
	}
	edges := []graph.Edge{
		{U: V1, V: V3, Weight: 1},
		{U: V1, V: V8, Weight: 1},
		{U: V2, V: V3, Weight: 1},
		{U: V2, V: V8, Weight: 2},
		{U: V4, V: V5, Weight: 1},
		{U: V4, V: V6, Weight: 1},
		{U: V5, V: V6, Weight: 1},
		{U: V5, V: V7, Weight: 1},
		{U: V6, V: V8, Weight: 2},
	}
	g, err := graph.FromEdges(coords, edges)
	if err != nil {
		panic("testutil: Figure1 construction failed: " + err.Error())
	}
	return g
}

// SmallRoad returns a deterministic synthetic road network of roughly n
// vertices, suitable for exhaustive ground-truth comparison.
func SmallRoad(n int, seed int64) *graph.Graph {
	return gen.Generate(gen.Params{N: n, Seed: seed})
}

// MessyGraph returns a seeded random graph made to be awkward for every
// technique, the one source of adversarial graphs: several components of
// different density (unreachable pairs), isolated vertices, parallel edges
// of different weight (an answer must name the right one), long runs of
// unit-weight edges — ties between equally short paths at every level of a
// hierarchy; the graph layer rejects weights below 1, so unit weights are
// as close to zero-weight edges as a graph here gets — and vertices stacked
// on one point, some of them across components.
func MessyGraph(seed int64) *graph.Graph {
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

// Graphs returns the graphs every differential and golden test covers, by
// name: the DE and NH presets (NH not with -short) and MessyGraph seeds 1 to
// 12 as messy1..messy12.
func Graphs(t *testing.T) map[string]*graph.Graph {
	graphs := map[string]*graph.Graph{}
	for seed := int64(1); seed <= 12; seed++ {
		graphs[fmt.Sprintf("messy%d", seed)] = MessyGraph(seed)
	}
	presets := []string{"DE"}
	if !testing.Short() {
		presets = append(presets, "NH")
	}
	for _, name := range presets {
		g, err := gen.GeneratePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	return graphs
}

// GoldenDigests holds an index build to a table of digests over Graphs.
// build returns the digest of the index of g built over a hierarchy
// contracted with the given witness settle limit (0: the default); each
// graph is built under GOMAXPROCS 1, 2 and 8 and over a limit-4 hierarchy,
// and all four digests must be the table's — the index is a function of
// the graph, not of the scheduling or of the hierarchy swept.
func GoldenDigests(t *testing.T, want map[string]uint64, build func(t *testing.T, g *graph.Graph, witnessLimit int) uint64) {
	for name, g := range Graphs(t) {
		t.Run(name, func(t *testing.T) {
			for _, cell := range [][2]int{{1, 0}, {2, 0}, {8, 0}, {1, 4}} {
				got := func() uint64 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cell[0]))
					return build(t, g, cell[1])
				}()
				if got != want[name] {
					t.Errorf("GOMAXPROCS=%d witness limit=%d: digest %#016x, table says %#016x", cell[0], cell[1], got, want[name])
				}
			}
		})
	}
}

// DistanceFunc answers a distance query; PathFunc a shortest-path query.
type DistanceFunc func(s, t graph.VertexID) int64

// PathFunc opens a shortest-path query: the signature of every searcher's
// OpenPath.
type PathFunc func(ctx context.Context, s, t graph.VertexID) (graph.PathIterator, int64, error)

// Path drains f's iterator over the shortest s-t path into a fresh slice
// and returns it with its length, or (nil, graph.Infinity) when t is
// unreachable. It panics on an error, which a query on a background
// context does not return.
func Path(f PathFunc, s, t graph.VertexID) ([]graph.VertexID, int64) {
	it, d, err := f(context.Background(), s, t)
	var path []graph.VertexID
	if err == nil && it != nil {
		path, err = graph.AppendPath(nil, it)
	}
	if err != nil {
		panic(fmt.Sprintf("testutil: path(%d, %d): %v", s, t, err))
	}
	if it == nil {
		return nil, graph.Infinity
	}
	return path, d
}

// CheckDistancesAgainstDijkstra compares dist(s, t) from the technique under
// test with ground truth for the given pairs.
func CheckDistancesAgainstDijkstra(t *testing.T, g *graph.Graph, pairs [][2]graph.VertexID, f DistanceFunc) {
	t.Helper()
	ctx := dijkstra.NewContext(g)
	for _, p := range pairs {
		s, tt := p[0], p[1]
		want := ctx.Distance(s, tt)
		got := f(s, tt)
		if got != want {
			t.Errorf("dist(%d, %d) = %d, want %d", s, tt, got, want)
		}
	}
}

// CheckPathsAgainstDijkstra verifies that the technique's path answers are
// valid paths in g whose total weight equals the Dijkstra distance.
func CheckPathsAgainstDijkstra(t *testing.T, g *graph.Graph, pairs [][2]graph.VertexID, f PathFunc) {
	t.Helper()
	ctx := dijkstra.NewContext(g)
	for _, p := range pairs {
		s, tt := p[0], p[1]
		want := ctx.Distance(s, tt)
		path, dist := Path(f, s, tt)
		if want >= graph.Infinity {
			if dist < graph.Infinity {
				t.Errorf("path(%d, %d): reported distance %d for unreachable pair", s, tt, dist)
			}
			continue
		}
		if dist != want {
			t.Errorf("path(%d, %d): reported distance %d, want %d", s, tt, dist, want)
			continue
		}
		if len(path) == 0 || path[0] != s || path[len(path)-1] != tt {
			t.Errorf("path(%d, %d): endpoints wrong in %v", s, tt, path)
			continue
		}
		if w := dijkstra.PathWeight(g, path); w != want {
			t.Errorf("path(%d, %d): edges sum to %d, want %d (path %v)", s, tt, w, want, path)
		}
	}
}

// CheckAcrossGenerationWrap holds a searcher's generation-stamped labels to
// the wrap of their uint32 stamp. On MessyGraph seeds 1 to 4, open returns a
// fresh searcher's distance query and a setter of its stamp. For each
// sampled pair the stamp is set to MaxUint32-1 and the searcher answers the
// pair and then, across the wrap, the pair half the sample away, each
// against plain Dijkstra. A wrap that does not clear the labels leaves the
// second query the labels of the previous round's second query, at the
// stamp it runs under. Pairs with s == t are left out: a searcher may answer
// them without starting a search, and its round would not cross the wrap.
func CheckAcrossGenerationWrap(t *testing.T, open func(g *graph.Graph) (f DistanceFunc, setStamp func(uint32))) {
	t.Helper()
	for seed := int64(1); seed <= 4; seed++ {
		g := MessyGraph(seed)
		f, setStamp := open(g)
		pairs := slices.DeleteFunc(SamplePairs(g, 64, seed), func(p [2]graph.VertexID) bool { return p[0] == p[1] })
		for i, p := range pairs {
			setStamp(math.MaxUint32 - 1)
			CheckDistancesAgainstDijkstra(t, g, [][2]graph.VertexID{p, pairs[(i+len(pairs)/2)%len(pairs)]}, f)
		}
	}
}

// AllPairs enumerates every ordered vertex pair of g, for exhaustive checks
// on small graphs.
func AllPairs(g *graph.Graph) [][2]graph.VertexID {
	n := g.NumVertices()
	pairs := make([][2]graph.VertexID, 0, n*n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			pairs = append(pairs, [2]graph.VertexID{graph.VertexID(s), graph.VertexID(t)})
		}
	}
	return pairs
}

// SamplePairs returns a deterministic pseudo-random sample of vertex pairs.
func SamplePairs(g *graph.Graph, count int, seed int64) [][2]graph.VertexID {
	n := int64(g.NumVertices())
	pairs := make([][2]graph.VertexID, 0, count)
	x := uint64(seed)*2654435761 + 1
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(n))
	}
	for i := 0; i < count; i++ {
		pairs = append(pairs, [2]graph.VertexID{graph.VertexID(next()), graph.VertexID(next())})
	}
	return pairs
}
