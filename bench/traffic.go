package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"roadnet"
	"roadnet/internal/geom"
	"roadnet/internal/rtree"
)

// The traffic generators turn a seed into the request list of one serve
// workload. The program under test never sees the seed, only the requests.

type requestKind int

const (
	kindDistance requestKind = iota
	kindRoute
	kindBatch
)

// request is one HTTP request together with what it asks, so the checker
// can judge the answer and the traced run can replay the same question
// against the layers below the socket.
type request struct {
	Kind   requestKind
	Method string
	Path   string
	Body   string

	S, T             roadnet.VertexID   // distance, route (after snapping)
	From, To         geom.Point         // route: the raw points of the URL
	Sources, Targets []roadnet.VertexID // batch

	WantDist   int64     // distance, route
	WantMatrix [][]int64 // batch
}

// requestListBytes renders a request list in a canonical form; two lists
// are the same traffic exactly when these bytes are equal.
func requestListBytes(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%s %s\n%s\n", r.Method, r.Path, r.Body)
	}
	return b.Bytes()
}

// The share of distance requests whose destination comes from the near
// half of the Q ladder (Q1..Q5); the rest come from Q6..Q10.
const nearShare = 0.6

// zipfExponent skews origins: a few vertices (depots, city centres) start
// most trips.
const zipfExponent = 1.1

// trafficSource holds what every generator needs: the graph, an R-tree
// over its vertices for region look-ups, and the Q1..Q10 distance ladder.
type trafficSource struct {
	g      *roadnet.Graph
	tree   *roadnet.RTree
	ladder []roadnet.QuerySet // only Lo and Hi are used
}

func newTrafficSource(g *roadnet.Graph, tree *roadnet.RTree) (*trafficSource, error) {
	// The ladder depends on the graph alone (its extent and smallest edge
	// separation as sampled with this fixed seed), so every traffic seed
	// buckets distances the same way.
	ladder, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	return &trafficSource{g: g, tree: tree, ladder: ladder}, nil
}

// destination draws a vertex whose L-infinity distance from s lies in
// bucket b of the ladder, moving to the next wider bucket when s has no
// such neighbour. Far buckets accept most random vertices; near buckets
// are found through the R-tree.
func (ts *trafficSource) destination(rng *rand.Rand, s roadnet.VertexID, b int) roadnet.VertexID {
	n := ts.g.NumVertices()
	ps := ts.g.Coord(s)
	for ; b < len(ts.ladder); b++ {
		lo, hi := ts.ladder[b].Lo, ts.ladder[b].Hi
		for try := 0; try < 32; try++ {
			t := roadnet.VertexID(rng.Intn(n))
			if d := ps.LInf(ts.g.Coord(t)); t != s && d >= lo && d < hi {
				return t
			}
		}
		var cands []roadnet.VertexID
		ts.tree.Search(squareAround(ps, hi), func(e rtree.Entry) bool {
			if d := ps.LInf(e.P); e.ID != s && d >= lo && d < hi {
				cands = append(cands, e.ID)
			}
			return true
		})
		if len(cands) > 0 {
			// Sorted, so that the draw does not depend on the order in
			// which the R-tree happens to visit its entries.
			slices.Sort(cands)
			return cands[rng.Intn(len(cands))]
		}
	}
	// Only a graph of one vertex gets here.
	return s
}

func squareAround(p geom.Point, half int64) geom.Rect {
	clamp := func(v int64) int32 {
		const lo, hi = -1 << 31, 1<<31 - 1
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return int32(v)
	}
	return geom.Rect{
		MinX: clamp(int64(p.X) - half), MinY: clamp(int64(p.Y) - half),
		MaxX: clamp(int64(p.X) + half), MaxY: clamp(int64(p.Y) + half),
	}
}

// distanceTraffic is the serve_distance request list: origins zipf-skewed
// over a seeded permutation of the vertices, destinations from a bucket of
// the Q ladder drawn with fixed weights.
func (ts *trafficSource) distanceTraffic(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nv := ts.g.NumVertices()
	perm := rng.Perm(nv)
	zipf := rand.NewZipf(rng, zipfExponent, 1, uint64(nv-1))
	half := len(ts.ladder) / 2
	reqs := make([]request, n)
	for i := range reqs {
		s := roadnet.VertexID(perm[zipf.Uint64()])
		b := rng.Intn(half)
		if rng.Float64() >= nearShare {
			b += half
		}
		t := ts.destination(rng, s, b)
		reqs[i] = request{
			Kind: kindDistance, Method: "GET", S: s, T: t,
			Path: "/v1/distance?from=" + strconv.Itoa(int(s)) + "&to=" + strconv.Itoa(int(t)),
		}
	}
	return reqs
}

// routeTraffic is the serve_route request list: long trips (the three
// farthest buckets of the ladder) addressed by coordinates a little off
// the vertices, so the server has to snap both ends through its R-tree.
func (ts *trafficSource) routeTraffic(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nv := ts.g.NumVertices()
	jitter := int(ts.ladder[0].Lo/3) + 1
	first := max(len(ts.ladder)-3, 0)
	reqs := make([]request, n)
	for i := range reqs {
		s := roadnet.VertexID(rng.Intn(nv))
		t := ts.destination(rng, s, first+rng.Intn(len(ts.ladder)-first))
		from, to := ts.offVertex(rng, s, jitter), ts.offVertex(rng, t, jitter)
		reqs[i] = request{
			Kind: kindRoute, Method: "GET", From: from, To: to,
			S: ts.snap(from), T: ts.snap(to),
			Path: fmt.Sprintf("/v1/route?from_x=%d&from_y=%d&to_x=%d&to_y=%d", from.X, from.Y, to.X, to.Y),
		}
	}
	return reqs
}

func (ts *trafficSource) offVertex(rng *rand.Rand, v roadnet.VertexID, jitter int) geom.Point {
	p := ts.g.Coord(v)
	return geom.Point{X: p.X + int32(rng.Intn(2*jitter+1)-jitter), Y: p.Y + int32(rng.Intn(2*jitter+1)-jitter)}
}

// snap is the benchmark's own statement of what snapping means: the vertex
// nearest to p by Euclidean distance, the smaller id on a tie. It scans
// every vertex, so it owes nothing to the R-tree it checks.
func (ts *trafficSource) snap(p geom.Point) roadnet.VertexID {
	best, bestD := roadnet.VertexID(-1), int64(0)
	for v, q := range ts.g.Coords() {
		dx, dy := int64(p.X)-int64(q.X), int64(p.Y)-int64(q.Y)
		if d := dx*dx + dy*dy; best < 0 || d < bestD {
			best, bestD = roadnet.VertexID(v), d
		}
	}
	return best
}

// batchSide is the number of sources, and of targets, in one batch request.
const batchSide = 16

// batchTraffic is the serve_batch request list: each request is a 16 x 16
// distance matrix among vertices of one region, as a dispatcher matching
// vehicles to pick-ups in one city would ask.
func (ts *trafficSource) batchTraffic(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nv := ts.g.NumVertices()
	bounds := ts.g.Bounds()
	extent := bounds.Width()
	if h := bounds.Height(); h > extent {
		extent = h
	}
	reqs := make([]request, n)
	for i := range reqs {
		centre := ts.g.Coord(roadnet.VertexID(rng.Intn(nv)))
		var region []roadnet.VertexID
		for half := extent/16 + 1; len(region) < 2*batchSide && half <= 2*extent; half *= 2 {
			region = region[:0]
			ts.tree.Search(squareAround(centre, half), func(e rtree.Entry) bool {
				region = append(region, e.ID)
				return true
			})
		}
		// The tree's visiting order is an implementation detail of the
		// R-tree; sort so that the request list depends on the seed alone.
		slices.Sort(region)
		rng.Shuffle(len(region), func(a, b int) { region[a], region[b] = region[b], region[a] })
		k := batchSide
		if len(region) < 2*k {
			k = len(region) / 2
		}
		src, tgt := region[:k], region[k:2*k]
		reqs[i] = request{
			Kind: kindBatch, Method: "POST", Path: "/v1/batch/distance",
			Sources: append([]roadnet.VertexID(nil), src...),
			Targets: append([]roadnet.VertexID(nil), tgt...),
			Body:    `{"sources":` + idList(src) + `,"targets":` + idList(tgt) + `}`,
		}
	}
	return reqs
}

func idList(ids []roadnet.VertexID) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	b.WriteByte(']')
	return b.String()
}

// fillExpected attaches the oracle's answer to every request.
func fillExpected(g *roadnet.Graph, reqs []request, workers int) {
	pairs := make([]roadnet.QueryPair, 0, len(reqs))
	for _, r := range reqs {
		if r.Kind != kindBatch {
			pairs = append(pairs, roadnet.QueryPair{S: r.S, T: r.T})
		}
	}
	dists := oracleDistances(g, pairs, workers)
	o := newOracle(g)
	k := 0
	for i := range reqs {
		r := &reqs[i]
		if r.Kind != kindBatch {
			r.WantDist = dists[k]
			k++
			continue
		}
		r.WantMatrix = make([][]int64, len(r.Sources))
		for si, s := range r.Sources {
			r.WantMatrix[si] = o.distances(s, r.Targets)
		}
	}
}
