package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLInf(t *testing.T) {
	cases := []struct {
		p, q Point
		want int64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 4},
		{Point{0, 0}, Point{-5, 2}, 5},
		{Point{-3, -3}, Point{3, 3}, 6},
		{Point{2147483647, 0}, Point{-2147483648, 0}, 4294967295},
	}
	for _, c := range cases {
		if got := c.p.LInf(c.q); got != c.want {
			t.Errorf("LInf(%v, %v) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := c.q.LInf(c.p); got != c.want {
			t.Errorf("LInf(%v, %v) = %d, want %d (symmetry)", c.q, c.p, got, c.want)
		}
	}
}

func TestLInfProperties(t *testing.T) {
	// Triangle inequality and non-negativity on random points.
	f := func(ax, ay, bx, by, cx, cy int32) bool {
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		dab, dbc, dac := a.LInf(b), b.LInf(c), a.LInf(c)
		return dab >= 0 && dac <= dab+dbc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{-5, 3, 10, 20}
	for _, p := range []Point{{-5, 3}, {10, 20}, {0, 10}, {-5, 20}} {
		if !r.Contains(p) {
			t.Errorf("rect %+v should contain %v", r, p)
		}
	}
	for _, p := range []Point{{-6, 3}, {11, 20}, {0, 2}, {0, 21}} {
		if r.Contains(p) {
			t.Errorf("rect %+v should not contain %v", r, p)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{5, 5, 15, 15}, true},
		{Rect{10, 10, 20, 20}, true}, // corner touch counts
		{Rect{11, 0, 20, 10}, false},
		{Rect{0, 11, 10, 20}, false},
		{Rect{-10, -10, -1, -1}, false},
		{Rect{2, 2, 3, 3}, true}, // containment
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%+v, %+v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects(%+v, %+v) = %v, want %v (symmetry)", c.b, a, got, c.want)
		}
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 5, 5}
	b := Rect{-3, 2, 2, 9}
	u := a.Union(b)
	want := Rect{-3, 0, 5, 9}
	if u != want {
		t.Errorf("Union = %+v, want %+v", u, want)
	}
}

func TestBoundingRect(t *testing.T) {
	if got := BoundingRect(nil); got != (Rect{}) {
		t.Errorf("BoundingRect(nil) = %+v, want zero", got)
	}
	pts := []Point{{3, 4}, {-1, 7}, {5, -2}}
	want := Rect{-1, -2, 5, 7}
	if got := BoundingRect(pts); got != want {
		t.Errorf("BoundingRect = %+v, want %+v", got, want)
	}
	for _, p := range pts {
		if !BoundingRect(pts).Contains(p) {
			t.Errorf("bounding rect must contain %v", p)
		}
	}
}

// mortonRef interleaves x and y one bit at a time: bit i of x becomes bit
// 2i of the key, bit i of y bit 2i+1.
func mortonRef(x, y uint32) uint64 {
	var z uint64
	for i := 0; i < 32; i++ {
		z |= uint64(x>>i&1)<<(2*i) | uint64(y>>i&1)<<(2*i+1)
	}
	return z
}

func TestMortonEncode(t *testing.T) {
	cases := []struct{ x, y uint32 }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0xffffffff, 0}, {0, 0xffffffff},
		{0xffffffff, 0xffffffff}, {12345, 67890},
	}
	for _, c := range cases {
		if z, want := MortonEncode(c.x, c.y), mortonRef(c.x, c.y); z != want {
			t.Errorf("MortonEncode(%d, %d) = %#x, want %#x", c.x, c.y, z, want)
		}
	}
}

func TestMortonEncodeProperty(t *testing.T) {
	f := func(x, y uint32) bool { return MortonEncode(x, y) == mortonRef(x, y) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderWithinQuadrant(t *testing.T) {
	// All codes of the quadrant [0,2^k) x [0,2^k) are less than any code
	// with a coordinate bit above k set in an enclosing aligned square —
	// i.e. a quadrant forms a contiguous Morton interval. Spot-check the
	// interval property for the 4x4 quadrant of an 8x8 square.
	maxInQuad := uint64(0)
	for x := uint32(0); x < 4; x++ {
		for y := uint32(0); y < 4; y++ {
			if z := MortonEncode(x, y); z > maxInQuad {
				maxInQuad = z
			}
		}
	}
	if maxInQuad != 15 {
		t.Errorf("4x4 quadrant max Morton code = %d, want 15", maxInQuad)
	}
	for x := uint32(4); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			if z := MortonEncode(x, y); z <= maxInQuad {
				t.Errorf("code (%d, %d) = %d should exceed quadrant max %d", x, y, z, maxInQuad)
			}
		}
	}
}

func TestGridCellOf(t *testing.T) {
	g := NewGrid(Rect{0, 0, 1023, 1023}, 16, 16)
	w, h := g.CellSize()
	if w != 64 || h != 64 {
		t.Fatalf("cell size = (%d, %d), want (64, 64)", w, h)
	}
	cases := []struct {
		p        Point
		col, row int
	}{
		{Point{0, 0}, 0, 0},
		{Point{63, 63}, 0, 0},
		{Point{64, 0}, 1, 0},
		{Point{1023, 1023}, 15, 15},
		{Point{-100, 5000}, 0, 15}, // clamped
	}
	for _, c := range cases {
		col, row := g.CellOf(c.p)
		if col != c.col || row != c.row {
			t.Errorf("CellOf(%v) = (%d, %d), want (%d, %d)", c.p, col, row, c.col, c.row)
		}
	}
}

func TestGridCellRectPartition(t *testing.T) {
	// Every point in bounds falls in exactly the cell whose rect contains it.
	g := NewGrid(Rect{-50, -50, 49, 49}, 4, 4)
	w, h := g.CellSize()
	cellRect := func(col, row int) Rect {
		minX, minY := g.Bounds.MinX+int32(col)*int32(w), g.Bounds.MinY+int32(row)*int32(h)
		return Rect{minX, minY, minX + int32(w) - 1, minY + int32(h) - 1}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := Point{int32(rng.Intn(100) - 50), int32(rng.Intn(100) - 50)}
		col, row := g.CellOf(p)
		if !cellRect(col, row).Contains(p) {
			t.Fatalf("point %v not in its cell rect %+v", p, cellRect(col, row))
		}
		count := 0
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if cellRect(c, r).Contains(p) {
					count++
				}
			}
		}
		if count != 1 {
			t.Fatalf("point %v contained in %d cell rects, want 1", p, count)
		}
	}
}

func TestGridDegenerate(t *testing.T) {
	// A grid over a single point must still work.
	g := NewGrid(Rect{5, 5, 5, 5}, 8, 8)
	col, row := g.CellOf(Point{5, 5})
	if col != 0 || row != 0 {
		t.Errorf("CellOf on degenerate grid = (%d, %d)", col, row)
	}
}

func TestChebyshevCellDist(t *testing.T) {
	cases := []struct {
		ca, ra, cb, rb, want int
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 3, 1, 3},
		{5, 5, 1, 9, 4},
		{2, 2, 2, 10, 8},
	}
	for _, c := range cases {
		if got := ChebyshevCellDist(c.ca, c.ra, c.cb, c.rb); got != c.want {
			t.Errorf("ChebyshevCellDist(%d,%d,%d,%d) = %d, want %d", c.ca, c.ra, c.cb, c.rb, got, c.want)
		}
	}
}

func TestNewGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid with zero cols should panic")
		}
	}()
	NewGrid(Rect{0, 0, 10, 10}, 0, 4)
}
