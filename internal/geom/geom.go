// Package geom provides the planar geometry primitives shared by the
// spatial-coherence-based indexes (SILC, PCPD), the grid-based index (TNR)
// and the workload generators: integer points, rectangles, the Chebyshev
// (L-infinity) metric, Z-order (Morton) encoding and regular grids.
//
// All coordinates are int32, matching the DIMACS coordinate files the paper
// uses (micro-degrees). Arithmetic that can overflow int32 is carried out
// in int64.
package geom

// Point is a planar point with integer coordinates.
type Point struct {
	X, Y int32
}

// LInf returns the L-infinity (Chebyshev) distance between p and q.
// The paper's query sets Q1..Q10 are defined by ranges of this metric.
func (p Point) LInf(q Point) int64 {
	dx := int64(p.X) - int64(q.X)
	if dx < 0 {
		dx = -dx
	}
	dy := int64(p.Y) - int64(q.Y)
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// Rect is a closed axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY int32
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Width returns the horizontal extent of r (number of integer columns minus one).
func (r Rect) Width() int64 { return int64(r.MaxX) - int64(r.MinX) }

// Height returns the vertical extent of r.
func (r Rect) Height() int64 { return int64(r.MaxY) - int64(r.MinY) }

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if s.MinX < r.MinX {
		r.MinX = s.MinX
	}
	if s.MinY < r.MinY {
		r.MinY = s.MinY
	}
	if s.MaxX > r.MaxX {
		r.MaxX = s.MaxX
	}
	if s.MaxY > r.MaxY {
		r.MaxY = s.MaxY
	}
	return r
}

// BoundingRect returns the bounding rectangle of the given points.
// It returns the zero Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}
