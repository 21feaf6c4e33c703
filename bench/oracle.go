package main

import (
	"fmt"
	"slices"
	"sync"

	"roadnet"
)

// tally counts operations attempted and operations that failed, were
// refused, or answered wrongly. The first few failures keep their reason.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check counts one operation: a nil error is a success.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
}

func (t *tally) failShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// oracle answers distance queries with a plain one-directional Dijkstra
// over the graph's adjacency arrays. It shares no search code and no heap
// with the techniques under test, so that a fault in either cannot hide
// behind the other.
type oracle struct {
	g    *roadnet.Graph
	dist []int64
	seen []uint32
	cur  uint32
	pq   oracleHeap
}

type oracleItem struct {
	d int64
	v roadnet.VertexID
}

// oracleHeap is a binary min-heap on d with lazy deletion: a vertex may sit
// in it several times and only its smallest key counts.
type oracleHeap []oracleItem

func (h *oracleHeap) push(it oracleItem) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].d <= a[i].d {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *oracleHeap) pop() oracleItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && a[c+1].d < a[c].d {
			c++
		}
		if a[i].d <= a[c].d {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

func newOracle(g *roadnet.Graph) *oracle {
	n := g.NumVertices()
	return &oracle{g: g, dist: make([]int64, n), seen: make([]uint32, n)}
}

// distances returns dist(s, t) for every t in targets, stopping once all of
// them are settled. Unreachable targets get roadnet.Infinity.
func (o *oracle) distances(s roadnet.VertexID, targets []roadnet.VertexID) []int64 {
	o.cur++
	o.pq = o.pq[:0]
	o.seen[s] = o.cur
	o.dist[s] = 0
	o.pq.push(oracleItem{0, s})

	out := make([]int64, len(targets))
	want := make(map[roadnet.VertexID]bool, len(targets))
	for i, t := range targets {
		out[i] = roadnet.Infinity
		want[t] = true
	}
	for len(o.pq) > 0 && len(want) > 0 {
		it := o.pq.pop()
		if it.d > o.dist[it.v] {
			continue // a stale entry; the vertex was settled at a smaller key
		}
		delete(want, it.v)
		lo, hi := o.g.ArcsOf(it.v)
		for a := lo; a < hi; a++ {
			w := o.g.Head(a)
			nd := it.d + int64(o.g.ArcWeight(a))
			if o.seen[w] != o.cur || nd < o.dist[w] {
				o.seen[w] = o.cur
				o.dist[w] = nd
				o.pq.push(oracleItem{nd, w})
			}
		}
	}
	for i, t := range targets {
		if o.seen[t] == o.cur && !want[t] {
			out[i] = o.dist[t]
		}
	}
	return out
}

func (o *oracle) distance(s, t roadnet.VertexID) int64 {
	return o.distances(s, []roadnet.VertexID{t})[0]
}

// oracleDistances answers every pair, splitting the work over the box's
// cores; set-up is untimed, so the only aim is to keep it short.
func oracleDistances(g *roadnet.Graph, pairs []roadnet.QueryPair, workers int) []int64 {
	out := make([]int64, len(pairs))
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := newOracle(g)
			for i := w; i < len(pairs); i += workers {
				out[i] = o.distance(pairs[i].S, pairs[i].T)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkPath verifies that path runs from s to t along edges of g and that
// its edge weights add up to want, the oracle's distance.
func checkPath(g *roadnet.Graph, path []roadnet.VertexID, s, t roadnet.VertexID, want int64) error {
	if want >= roadnet.Infinity {
		if len(path) != 0 {
			return fmt.Errorf("path %d->%d: got %d vertices for an unreachable pair", s, t, len(path))
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("path %d->%d: empty, want length %d", s, t, want)
	}
	if path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("path %d->%d: runs %d->%d", s, t, path[0], path[len(path)-1])
	}
	var sum int64
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		if u < 0 || int(u) >= g.NumVertices() || v < 0 || int(v) >= g.NumVertices() {
			return fmt.Errorf("path %d->%d: vertex out of range at hop %d", s, t, i)
		}
		w, ok := g.HasEdge(u, v)
		if !ok {
			return fmt.Errorf("path %d->%d: hop %d (%d,%d) is not an edge", s, t, i, u, v)
		}
		sum += int64(w)
	}
	if sum != want {
		return fmt.Errorf("path %d->%d: weights sum to %d, want %d", s, t, sum, want)
	}
	return nil
}

// The response bodies of the three endpoints the serve workloads use, as
// docs/API.md defines them.
type distanceBody struct {
	From      roadnet.VertexID `json:"from"`
	To        roadnet.VertexID `json:"to"`
	Reachable bool             `json:"reachable"`
	Distance  int64            `json:"distance"`
}

type routeBody struct {
	From      roadnet.VertexID   `json:"from"`
	To        roadnet.VertexID   `json:"to"`
	Reachable bool               `json:"reachable"`
	Distance  int64              `json:"distance"`
	Vertices  []roadnet.VertexID `json:"vertices"`
	Coords    [][2]int32         `json:"coords"`
}

type batchBody struct {
	Sources   []roadnet.VertexID `json:"sources"`
	Targets   []roadnet.VertexID `json:"targets"`
	Distances [][]int64          `json:"distances"`
}

func checkDistanceBody(got distanceBody, s, t roadnet.VertexID, want int64) error {
	if got.From != s || got.To != t {
		return fmt.Errorf("distance %d->%d: answered for %d->%d", s, t, got.From, got.To)
	}
	if reach := want < roadnet.Infinity; got.Reachable != reach {
		return fmt.Errorf("distance %d->%d: reachable=%v, want %v", s, t, got.Reachable, reach)
	}
	if got.Reachable && got.Distance != want {
		return fmt.Errorf("distance %d->%d: got %d, want %d", s, t, got.Distance, want)
	}
	return nil
}

func checkRouteBody(g *roadnet.Graph, got routeBody, s, t roadnet.VertexID, want int64) error {
	if err := checkDistanceBody(distanceBody{got.From, got.To, got.Reachable, got.Distance}, s, t, want); err != nil {
		return err
	}
	if err := checkPath(g, got.Vertices, s, t, want); err != nil {
		return err
	}
	if len(got.Coords) != len(got.Vertices) {
		return fmt.Errorf("route %d->%d: %d coords for %d vertices", s, t, len(got.Coords), len(got.Vertices))
	}
	for i, v := range got.Vertices {
		if p := g.Coord(v); got.Coords[i] != [2]int32{p.X, p.Y} {
			return fmt.Errorf("route %d->%d: coords[%d] is %v, vertex %d is at %v", s, t, i, got.Coords[i], v, p)
		}
	}
	return nil
}

// checkBatchBody compares a distance matrix with the oracle's; want uses
// roadnet.Infinity where the API answers -1.
func checkBatchBody(got batchBody, sources, targets []roadnet.VertexID, want [][]int64) error {
	if !slices.Equal(got.Sources, sources) || !slices.Equal(got.Targets, targets) {
		return fmt.Errorf("batch: echoed sources or targets differ from the request")
	}
	if len(got.Distances) != len(sources) {
		return fmt.Errorf("batch: %d rows for %d sources", len(got.Distances), len(sources))
	}
	for i, row := range got.Distances {
		if len(row) != len(targets) {
			return fmt.Errorf("batch: row %d has %d cells for %d targets", i, len(row), len(targets))
		}
		for j, d := range row {
			w := want[i][j]
			if w >= roadnet.Infinity {
				w = -1
			}
			if d != w {
				return fmt.Errorf("batch: cell (%d,%d) %d->%d is %d, want %d", i, j, sources[i], targets[j], d, w)
			}
		}
	}
	return nil
}
