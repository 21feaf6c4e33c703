package alt

import "roadnet/internal/graph"

// Landmarks returns ix's landmarks in selection order.
func Landmarks(ix *Index) []graph.VertexID { return ix.landmarks }
