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

	q      pq.Search
	target []uint32 // v is a target of the running search iff target[v] == q.Cur

	// shortcuts holds what the last simulate call found, until the next.
	shortcuts []shortcut
	work      buildWork
}

func newWitnessSearcher(n int, adj [][]halfEdge, limit int) *witnessSearcher {
	return &witnessSearcher{
		adj:    adj,
		limit:  limit,
		q:      pq.NewSearch(n),
		target: make([]uint32, n),
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
		ws.work.settled += int64(ws.q.Settled)
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
	if !ws.q.Reached(v) {
		return graph.Infinity
	}
	return ws.q.Labels[v].Dist
}

// search runs a budgeted Dijkstra from s on the residual graph, excluding
// vertex banned, never labelling a vertex beyond maxDist, stopping after the
// settle limit or once every target is settled: a settled distance is
// final, so the caller reads for each target what the search run to its end
// would have left. The pop past the limit counts in q.Settled.
func (ws *witnessSearcher) search(s, banned graph.VertexID, maxDist int64, targets []halfEdge) {
	ws.work.searches++
	q := &ws.q
	if q.Reset() {
		clear(ws.target)
	}
	for _, t := range targets {
		ws.target[t.to] = q.Cur
	}
	remaining := len(targets)
	q.Labels[s] = pq.Label{Dist: 0, Parent: -1, Gen: q.Cur}
	q.Push(s, 0)
	for !q.Empty() {
		v, d := q.Pop()
		if q.Settled > ws.limit {
			return
		}
		if ws.target[v] == q.Cur {
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
			// Inline rather than q.Visit: most relaxations here label a new
			// vertex, the case Visit keeps out of line.
			if l := &q.Labels[e.to]; l.Gen != q.Cur {
				*l = pq.Label{Dist: nd, Parent: v, Gen: q.Cur}
				q.Push(e.to, nd)
			} else if nd < l.Dist && q.Contains(e.to) {
				l.Dist, l.Parent = nd, v
				q.Push(e.to, nd)
			}
		}
	}
}
