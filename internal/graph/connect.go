package graph

// ConnectedComponents labels each vertex with a component id in
// [0, numComponents) and returns the labels and the component count.
// The paper assumes connected road networks (§2); the generator keeps the
// largest component (LargestComponent) of what it draws.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []VertexID
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		stack = append(stack[:0], VertexID(start))
		labels[start] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.ArcsOf(v)
			for a := lo; a < hi; a++ {
				if w := g.Head(a); labels[w] < 0 {
					labels[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	return labels, count
}

// LargestComponent returns the subgraph induced by the largest connected
// component together with a mapping from new vertex ids to original ids.
// If g is already connected, it is returned unchanged with a nil mapping.
func LargestComponent(g *Graph) (*Graph, []VertexID) {
	labels, count := ConnectedComponents(g)
	if count <= 1 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	keep := int32(best)
	oldToNew := make([]VertexID, g.NumVertices())
	var newToOld []VertexID
	b := NewBuilder(sizes[best])
	for v := 0; v < g.NumVertices(); v++ {
		if labels[v] == keep {
			oldToNew[v] = b.AddVertex(g.Coord(VertexID(v)))
			newToOld = append(newToOld, VertexID(v))
		} else {
			oldToNew[v] = -1
		}
	}
	for _, e := range g.Edges() {
		if labels[e.U] == keep {
			// Both endpoints share the component; AddEdge cannot fail here.
			_ = b.AddEdge(oldToNew[e.U], oldToNew[e.V], e.Weight)
		}
	}
	return b.Build(), newToOld
}
