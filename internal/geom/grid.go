package geom

// Grid partitions a bounding rectangle into Cols x Rows equally sized cells.
// TNR imposes such a grid on the road network (§3.3); the workload generator
// uses a 1024x1024 grid to define the L-infinity distance buckets of the
// query sets Q1..Q10 (§4.2).
type Grid struct {
	Bounds     Rect
	Cols, Rows int
	cellW      int64 // ceil(width / cols), at least 1
	cellH      int64
}

// NewGrid builds a grid of cols x rows cells over bounds. cols and rows must
// be positive.
func NewGrid(bounds Rect, cols, rows int) Grid {
	if cols <= 0 || rows <= 0 {
		panic("geom: grid dimensions must be positive")
	}
	g := Grid{Bounds: bounds, Cols: cols, Rows: rows}
	g.cellW = divCeil(bounds.Width()+1, int64(cols))
	if g.cellW < 1 {
		g.cellW = 1
	}
	g.cellH = divCeil(bounds.Height()+1, int64(rows))
	if g.cellH < 1 {
		g.cellH = 1
	}
	return g
}

func divCeil(a, b int64) int64 { return (a + b - 1) / b }

// CellSize returns the width and height of one grid cell.
func (g Grid) CellSize() (w, h int64) { return g.cellW, g.cellH }

// CellOf returns the column and row of the cell containing p. Points outside
// the bounds are clamped to the border cells, which keeps every vertex of a
// network inside the grid even if its coordinates sit on the boundary.
func (g Grid) CellOf(p Point) (col, row int) {
	col = int((int64(p.X) - int64(g.Bounds.MinX)) / g.cellW)
	row = int((int64(p.Y) - int64(g.Bounds.MinY)) / g.cellH)
	if col < 0 {
		col = 0
	}
	if col >= g.Cols {
		col = g.Cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	return col, row
}

// CellIndex returns a dense index for cell (col, row).
func (g Grid) CellIndex(col, row int) int { return row*g.Cols + col }

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// ChebyshevCellDist returns the Chebyshev distance between two cells, i.e.
// max(|dc|, |dr|). TNR's locality filter is expressed in this metric: cell B
// lies beyond the outer shell (the boundary of the 9x9 block) of cell A iff
// ChebyshevCellDist(A, B) > 4, and inside/on the 5x5 inner block iff <= 2.
func ChebyshevCellDist(colA, rowA, colB, rowB int) int {
	dc := colA - colB
	if dc < 0 {
		dc = -dc
	}
	dr := rowA - rowB
	if dr < 0 {
		dr = -dr
	}
	if dc > dr {
		return dc
	}
	return dr
}
