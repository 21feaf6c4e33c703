package ch

import (
	"roadnet/internal/graph"
	"roadnet/internal/pq"
)

// shortcut is one edge contraction of a vertex would add. The weight is the
// sum of two edge weights, not yet known to fit one: Build narrows it when
// it inserts the shortcut.
type shortcut struct {
	u, w   graph.VertexID
	weight int64
}

// buildWork counts what preprocessing did; the counts depend on the graph
// and the options alone.
type buildWork struct {
	simulations, searches int64 // simulate calls, witness searches run
	settled, scanned      int64 // vertices those settled, adjacency entries they read
}

// witnessSearcher runs the local Dijkstra searches that decide, while
// contracting a vertex v, whether a neighbor pair (u, w) needs a shortcut:
// a shortcut is required iff no "witness" path from u to w that avoids v is
// at most as short as the path through v. The search is budgeted — if the
// budget runs out before a witness is found, the shortcut is added anyway,
// which can only cost space, never correctness.
type witnessSearcher struct {
	adj   [][]halfEdge // live (uncontracted) neighbors only
	limit int

	dist   []int64
	gen    []uint32 // dist[v] is set iff gen[v] == cur
	target []uint32 // v is a target of the running search iff target[v] == cur
	cur    uint32
	heap   *pq.Heap

	// shortcuts holds what the last simulate call found, until the next.
	shortcuts []shortcut
	work      buildWork
}

func newWitnessSearcher(n int, adj [][]halfEdge, limit int) *witnessSearcher {
	return &witnessSearcher{
		adj:    adj,
		limit:  limit,
		dist:   make([]int64, n),
		gen:    make([]uint32, n),
		target: make([]uint32, n),
		heap:   pq.New(n),
	}
}

// simulate finds the shortcuts contraction of v would create, one (u, w,
// d(u,v)+d(v,w)) for each neighbor pair whose shortest connection runs
// through v, leaves them in ws.shortcuts and returns their number. The
// priority computation wants the number, contraction the shortcuts.
func (ws *witnessSearcher) simulate(v graph.VertexID) int {
	ws.work.simulations++
	ws.shortcuts = ws.shortcuts[:0]
	nbs := ws.adj[v]
	// One witness search from u covers all later targets w; the last
	// neighbor has none.
	for i := 0; i < len(nbs)-1; i++ {
		eu, targets := nbs[i], nbs[i+1:]
		// The budget counts the earlier neighbors too, though their
		// distances are not read: see the package doc.
		var maxTarget int64
		for j, ew := range nbs {
			if j != i {
				maxTarget = max(maxTarget, int64(ew.w))
			}
		}
		ws.search(eu.to, v, int64(eu.w)+maxTarget, targets)
		for _, ew := range targets {
			through := int64(eu.w) + int64(ew.w)
			if ws.distOf(ew.to) <= through {
				continue // witness found: no shortcut needed
			}
			ws.shortcuts = append(ws.shortcuts, shortcut{u: eu.to, w: ew.to, weight: through})
		}
	}
	return len(ws.shortcuts)
}

func (ws *witnessSearcher) distOf(v graph.VertexID) int64 {
	if ws.gen[v] != ws.cur {
		return graph.Infinity
	}
	return ws.dist[v]
}

// search runs a budgeted Dijkstra from s on the residual graph, excluding
// vertex banned, stopping at distance > maxDist, after the settle limit, or
// once every target is settled: a settled distance is final, so the caller
// reads for each target what the search run to its end would have left.
func (ws *witnessSearcher) search(s, banned graph.VertexID, maxDist int64, targets []halfEdge) {
	ws.work.searches++
	ws.cur++
	if ws.cur == 0 {
		clear(ws.gen)
		clear(ws.target)
		ws.cur = 1
	}
	for _, t := range targets {
		ws.target[t.to] = ws.cur
	}
	remaining := len(targets)
	ws.heap.Clear()
	ws.gen[s] = ws.cur
	ws.dist[s] = 0
	ws.heap.Push(s, 0)
	last := ws.work.settled + int64(ws.limit) // the count at which the settle limit is spent
	for !ws.heap.Empty() {
		v, d := ws.heap.Pop()
		if d > maxDist {
			return
		}
		if ws.work.settled++; ws.work.settled > last {
			return
		}
		if ws.target[v] == ws.cur {
			if remaining--; remaining == 0 {
				return
			}
		}
		ws.work.scanned += int64(len(ws.adj[v]))
		for _, e := range ws.adj[v] {
			if e.to == banned {
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
