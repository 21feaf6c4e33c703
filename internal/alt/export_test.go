package alt

import "roadnet/internal/graph"

// Landmarks returns ix's landmarks in selection order.
func Landmarks(ix *Index) []graph.VertexID { return ix.landmarks }

// SetStamp sets the generation stamp of s's labels, for tests that cross
// its wrap.
func (s *Searcher) SetStamp(stamp uint32) { s.q.Cur = stamp }
