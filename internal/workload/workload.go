// Package workload generates the paper's query workloads (§4.2, App. E.2):
//
//   - Q1..Q10: pairs of vertices bucketed by L-infinity distance. The paper
//     imposes a 1024x1024 grid with cell side l and draws pairs with L-inf
//     distance in [2^(i-1)*l, 2^i*l).
//   - R1..R10: pairs bucketed by road-network distance; the paper draws
//     pairs with dist in [2^(i-11)*ld, 2^(i-10)*ld) for a diameter
//     estimate ld.
//
// Our synthetic maps are geometrically smaller than the USA graphs (the
// scaled presets compress the ratio between map extent and vertex spacing),
// so a fixed factor-2 ladder anchored at extent/1024 would leave the lowest
// buckets empty. We therefore keep 10 geometrically growing buckets that
// span the achievable range [minSep, extent) — the ladder degenerates to
// the paper's factor-2 ladder as the maps grow. The semantics of the
// experiments are preserved: low buckets are local queries (TNR must fall
// back to CH), high buckets cross the map (TNR answers from its tables).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"roadnet/internal/dijkstra"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// Pair is one query: a source and a target vertex.
type Pair struct {
	S, T graph.VertexID
}

// QuerySet is one bucket of query pairs, e.g. Q3 or R7.
type QuerySet struct {
	// Name is "Q1".."Q10" or "R1".."R10".
	Name string
	// Lo and Hi bound the distance (L-infinity or network) of every pair:
	// Lo <= d < Hi.
	Lo, Hi int64
	// Pairs holds the generated queries.
	Pairs []Pair
}

// numSets is the number of buckets, as in the paper.
const numSets = 10

// Config sizes and seeds workload generation; every call makes numSets
// buckets.
type Config struct {
	// PairsPerSet is the number of queries per bucket; the paper uses
	// 10000. Default 1000.
	PairsPerSet int
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PairsPerSet <= 0 {
		c.PairsPerSet = 1000
	}
	return c
}

// ladder returns numSets geometric bucket boundaries spanning [lo, hi).
func ladder(lo, hi float64) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi <= lo*2 {
		hi = lo * 2 * float64(numSets)
	}
	r := math.Pow(hi/lo, 1/float64(numSets))
	bounds := make([]int64, numSets+1)
	x := lo
	for i := 0; i <= numSets; i++ {
		bounds[i] = int64(math.Round(x))
		x *= r
	}
	bounds[numSets] = int64(hi)
	return bounds
}

// LInfSets generates the Q1..Q10 analogues for g: pairs bucketed by the
// L-infinity distance between their coordinates.
func LInfSets(g *graph.Graph, cfg Config) ([]QuerySet, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if n < 2 {
		return nil, fmt.Errorf("workload: graph too small (%d vertices)", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := geom.BoundingRect(g.Coords())
	extent := bounds.Width()
	if h := bounds.Height(); h > extent {
		extent = h
	}
	minSep := estimateMinSeparation(g, rng)
	bnds := ladder(float64(minSep), float64(extent))

	// Acceleration grid for annulus sampling.
	const accel = 64
	grid := geom.NewGrid(bounds, accel, accel)
	cellVerts := make([][]graph.VertexID, grid.NumCells())
	for v := 0; v < n; v++ {
		c, r := grid.CellOf(g.Coord(graph.VertexID(v)))
		i := grid.CellIndex(c, r)
		cellVerts[i] = append(cellVerts[i], graph.VertexID(v))
	}

	sets := make([]QuerySet, numSets)
	for i := range sets {
		lo, hi := bnds[i], bnds[i+1]
		set := QuerySet{Name: fmt.Sprintf("Q%d", i+1), Lo: lo, Hi: hi}
		set.Pairs = sampleLInfPairs(g, grid, cellVerts, rng, lo, hi, cfg.PairsPerSet)
		if len(set.Pairs) == 0 {
			return nil, fmt.Errorf("workload: no pairs with L-inf distance in [%d, %d)", lo, hi)
		}
		sets[i] = set
	}
	return sets, nil
}

// sampleLInfPairs draws up to count pairs with L-inf distance in [lo, hi):
// rejection sampling first (fast for wide annuli), then guided sampling via
// the acceleration grid for narrow annuli.
func sampleLInfPairs(g *graph.Graph, grid geom.Grid, cellVerts [][]graph.VertexID,
	rng *rand.Rand, lo, hi int64, count int) []Pair {
	n := g.NumVertices()
	pairs := make([]Pair, 0, count)
	inRange := func(s, t graph.VertexID) bool {
		d := g.Coord(s).LInf(g.Coord(t))
		return d >= lo && d < hi
	}
	rejectionBudget := count * 40
	for len(pairs) < count && rejectionBudget > 0 {
		rejectionBudget--
		s := graph.VertexID(rng.Intn(n))
		t := graph.VertexID(rng.Intn(n))
		if s != t && inRange(s, t) {
			pairs = append(pairs, Pair{S: s, T: t})
		}
	}
	// Guided phase: for a random s, enumerate grid cells overlapping the
	// L-inf annulus and pick a random in-range vertex.
	cw, chh := grid.CellSize()
	cell := cw
	if chh > cell {
		cell = chh
	}
	attempts := count * 20
	for len(pairs) < count && attempts > 0 {
		attempts--
		s := graph.VertexID(rng.Intn(n))
		sc, sr := grid.CellOf(g.Coord(s))
		rLo := int(lo/cell) - 1
		rHi := int(hi/cell) + 1
		if rLo < 0 {
			rLo = 0
		}
		var candidates []graph.VertexID
		for dr := -rHi; dr <= rHi; dr++ {
			for dc := -rHi; dc <= rHi; dc++ {
				if max(abs(dr), abs(dc)) < rLo {
					continue
				}
				c, r := sc+dc, sr+dr
				if c < 0 || c >= grid.Cols || r < 0 || r >= grid.Rows {
					continue
				}
				for _, v := range cellVerts[grid.CellIndex(c, r)] {
					if v != s && inRange(s, v) {
						candidates = append(candidates, v)
					}
				}
			}
		}
		if len(candidates) > 0 {
			pairs = append(pairs, Pair{S: s, T: candidates[rng.Intn(len(candidates))]})
		}
	}
	return pairs
}

// estimateMinSeparation returns a small achievable L-inf distance between
// distinct vertices: the minimum over sampled adjacent pairs.
func estimateMinSeparation(g *graph.Graph, rng *rand.Rand) int64 {
	n := g.NumVertices()
	best := int64(math.MaxInt64)
	for i := 0; i < 200; i++ {
		v := graph.VertexID(rng.Intn(n))
		g.Neighbors(v, func(w graph.VertexID, _ graph.Weight, _ int32) bool {
			if d := g.Coord(v).LInf(g.Coord(w)); d > 0 && d < best {
				best = d
			}
			return true
		})
	}
	if best == math.MaxInt64 {
		best = 1
	}
	return best
}

// NetworkDistanceSets generates the R1..R10 analogues (App. E.2): pairs
// bucketed by shortest-path distance. Each random source contributes up to
// perSourceCap targets to every bucket from one Dijkstra run.
func NetworkDistanceSets(g *graph.Graph, cfg Config) ([]QuerySet, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if n < 2 {
		return nil, fmt.Errorf("workload: graph too small (%d vertices)", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	ld := EstimateDiameter(g, cfg.Seed)
	minW := minEdgeWeight(g)
	bnds := ladder(float64(minW)*1.5, float64(ld))

	sets := make([]QuerySet, numSets)
	for i := range sets {
		sets[i] = QuerySet{
			Name:  fmt.Sprintf("R%d", i+1),
			Lo:    bnds[i],
			Hi:    bnds[i+1],
			Pairs: make([]Pair, 0, cfg.PairsPerSet),
		}
	}
	bucketOf := func(d int64) int {
		for i := range sets {
			if d >= sets[i].Lo && d < sets[i].Hi {
				return i
			}
		}
		return -1
	}

	ctx := dijkstra.NewContext(g)
	perSourceCap := 10
	if cfg.PairsPerSet < perSourceCap {
		perSourceCap = cfg.PairsPerSet
	}
	maxSources := 40 * numSets * (cfg.PairsPerSet/perSourceCap + 1)
	byBucket := make([][]graph.VertexID, numSets)
	for iter := 0; iter < maxSources; iter++ {
		done := true
		for i := range sets {
			if len(sets[i].Pairs) < cfg.PairsPerSet {
				done = false
				break
			}
		}
		if done {
			break
		}
		s := graph.VertexID(rng.Intn(n))
		ctx.Run([]graph.VertexID{s}, dijkstra.Options{})
		for i := range byBucket {
			byBucket[i] = byBucket[i][:0]
		}
		for _, v := range ctx.Settled() {
			if v == s {
				continue
			}
			if b := bucketOf(ctx.Dist(v)); b >= 0 {
				byBucket[b] = append(byBucket[b], v)
			}
		}
		for i := range sets {
			need := cfg.PairsPerSet - len(sets[i].Pairs)
			if need <= 0 || len(byBucket[i]) == 0 {
				continue
			}
			take := perSourceCap
			if take > need {
				take = need
			}
			for j := 0; j < take; j++ {
				t := byBucket[i][rng.Intn(len(byBucket[i]))]
				sets[i].Pairs = append(sets[i].Pairs, Pair{S: s, T: t})
			}
		}
	}
	for i := range sets {
		if len(sets[i].Pairs) == 0 {
			return nil, fmt.Errorf("workload: no pairs with network distance in [%d, %d)", sets[i].Lo, sets[i].Hi)
		}
	}
	return sets, nil
}

// EstimateDiameter estimates the maximum shortest-path distance in g via a
// double sweep: Dijkstra from a random vertex, then from the farthest vertex
// found. This mirrors the paper's "rough estimation of the maximum distance
// ld between any two vertices".
func EstimateDiameter(g *graph.Graph, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed + 13))
	ctx := dijkstra.NewContext(g)
	far := graph.VertexID(rng.Intn(g.NumVertices()))
	var ld int64
	for sweep := 0; sweep < 2; sweep++ {
		ctx.Run([]graph.VertexID{far}, dijkstra.Options{})
		for _, v := range ctx.Settled() {
			if d := ctx.Dist(v); d > ld {
				ld = d
				far = v
			}
		}
	}
	if ld < 1 {
		ld = 1
	}
	return ld
}

func minEdgeWeight(g *graph.Graph) int64 {
	best := int64(math.MaxInt64)
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.ArcsOf(graph.VertexID(v))
		for a := lo; a < hi; a++ {
			if w := int64(g.ArcWeight(a)); w < best {
				best = w
			}
		}
	}
	if best == math.MaxInt64 {
		return 1
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
