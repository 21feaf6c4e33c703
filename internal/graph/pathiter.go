package graph

// PathIterator yields the vertices of one shortest path in order, on
// demand. It is the one form in which a searcher answers a path query: CH
// shortcut unpacking and TNR access-node stitching produce the vertices
// lazily, the Dijkstra-family parent walks, SILC's first-hop walk and
// PCPD's recursion from a buffer the searcher reuses, and consumers (the
// HTTP route streamers, core's one slice collector) drain it.
//
// Protocol: Next returns the path's vertices front to back, one per call,
// then reports false. After a false, Err distinguishes normal exhaustion
// (nil) from an aborted walk (the context's error): a consumer that saw
// false with a nil Err has received the complete path. Iterators whose
// Next does per-vertex work poll their context every cancel.Interval
// vertices, so draining one obeys the same cancellation contract as the
// query that opened it.
//
// An iterator reads the per-query state of the searcher that opened it: it
// is invalidated by that searcher's next query and must be drained before
// the searcher is reused or returned to a pool.
type PathIterator interface {
	// Next returns the next path vertex, or ok=false when the path is
	// exhausted or the walk was aborted (see Err).
	Next() (v VertexID, ok bool)
	// Err returns the error that cut the walk short, or nil after a
	// complete iteration. It is meaningful only once Next has returned
	// false.
	Err() error
}

// SlicePath is a PathIterator over an already-materialized vertex
// sequence: the techniques with no lazy production keep one beside the
// scratch buffer they assemble each path in, and Reset it per query.
type SlicePath struct {
	path []VertexID
	at   int
}

// Reset re-targets the iterator at path, reusing the receiver so
// per-searcher SlicePath scratch never reallocates.
func (it *SlicePath) Reset(path []VertexID) {
	it.path = path
	it.at = 0
}

// Next implements PathIterator.
func (it *SlicePath) Next() (VertexID, bool) {
	if it.at >= len(it.path) {
		return 0, false
	}
	v := it.path[it.at]
	it.at++
	return v, true
}

// Err implements PathIterator; a materialized path cannot fail mid-walk.
func (it *SlicePath) Err() error { return nil }

// AppendPath drains it into dst and returns the extended slice — the
// collector turning an iterator into a materialized path. On an aborted
// walk it returns (nil, it.Err()).
func AppendPath(dst []VertexID, it PathIterator) ([]VertexID, error) {
	for {
		v, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				return nil, err
			}
			return dst, nil
		}
		dst = append(dst, v)
	}
}
