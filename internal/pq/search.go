package pq

// Label is one vertex's label in a Search: its tentative distance, the
// vertex it was reached from (-1 at a source) and the generation that wrote
// it.
type Label struct {
	Dist   int64
	Parent int32
	Gen    uint32
}

// Search is the state of one Dijkstra-style search over ids [0, n): the
// heap of its frontier and a Label per vertex. Labels[v] belongs to the
// search in progress iff Labels[v].Gen == Cur, so Reset starts a new search
// in time proportional to the frontier left behind, not to n.
type Search struct {
	Heap
	Labels []Label
	Cur    uint32
}

// NewSearch returns the state for searches over n vertices.
func NewSearch(n int) Search {
	return Search{Heap: *New(n), Labels: make([]Label, n)}
}

// Reset starts a new search: the heap empties and every label goes stale.
// It reports whether the stamp wrapped, which cleared every label, so a
// caller stamping other arrays with Cur knows to clear them too.
func (s *Search) Reset() (wrapped bool) {
	s.Clear()
	if s.Cur++; s.Cur != 0 {
		return false
	}
	clear(s.Labels)
	s.Cur = 1
	return true
}

// Reached reports whether the search in progress has labelled v.
func (s *Search) Reached(v int32) bool { return s.Labels[v].Gen == s.Cur }

// Visit offers v the distance d through parent, keyed by d: an unreached v
// is labelled and queued, a queued v with a longer label is lowered, and a
// settled v is left alone. It relies on what Reset and Visit maintain:
// every id on the heap is labelled in the search in progress.
func (s *Search) Visit(v int32, d int64, parent int32) {
	if l := &s.Labels[v]; l.Gen != s.Cur || d < l.Dist {
		s.improve(v, d, parent)
	}
}

// improve is Visit past its quick rejection. Kept apart, the common case of
// a relaxation that changes nothing runs in a small frame: written as one
// function, Visit made regional 16x16 many-to-many on CA ≈ 7 % slower on a
// 2-core Xeon.
func (s *Search) improve(v int32, d int64, parent int32) {
	l := &s.Labels[v]
	if l.Gen != s.Cur {
		*l = Label{d, parent, s.Cur}
		s.e = append(s.e, entry{})
		s.up(len(s.e)-1, entry{d, v})
	} else if p := s.pos[v]; p >= 0 { // else v is settled
		l.Dist, l.Parent = d, parent
		s.up(int(p), entry{d, v})
	}
}

// AppendParents appends the parent chain of v to buf, from v's parent to
// the source of its search.
func (s *Search) AppendParents(buf []int32, v int32) []int32 {
	for v = s.Labels[v].Parent; v >= 0; v = s.Labels[v].Parent {
		buf = append(buf, v)
	}
	return buf
}
