package graph

import (
	"bytes"
	"strings"
	"testing"

	"roadnet/internal/geom"
)

const sampleGR = `c test graph
p sp 4 6
a 1 2 10
a 2 1 10
a 2 3 20
a 3 2 20
a 3 4 5
a 4 3 5
`

const sampleCO = `c coordinates
p aux sp co 4
v 1 100 200
v 2 300 400
v 3 -50 0
v 4 0 -75
`

func TestReadGR(t *testing.T) {
	n, edges, err := ReadGR(strings.NewReader(sampleGR))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	if len(edges) != 3 {
		t.Fatalf("undirected edges = %d, want 3 (opposite arcs collapsed)", len(edges))
	}
}

func TestReadDIMACSRoundtrip(t *testing.T) {
	g, err := ReadDIMACS(strings.NewReader(sampleGR), strings.NewReader(sampleCO))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("graph has %d vertices %d edges, want 4 and 3", g.NumVertices(), g.NumEdges())
	}
	if p := g.Coord(2); p.X != -50 || p.Y != 0 {
		t.Fatalf("Coord(2) = %+v, want (-50, 0)", p)
	}

	var grBuf, coBuf bytes.Buffer
	if err := WriteGR(&grBuf, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteCO(&coBuf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(bytes.NewReader(grBuf.Bytes()), bytes.NewReader(coBuf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading written graph: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("roundtrip changed graph size")
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.Coord(v) != g2.Coord(v) {
			t.Fatalf("roundtrip changed coordinate of %d", v)
		}
	}
	for _, e := range g.Edges() {
		if w, ok := g2.HasEdge(e.U, e.V); !ok || w != e.Weight {
			t.Fatalf("roundtrip lost edge %+v", e)
		}
	}
}

// TestReadDIMACSDeterministic loads the same text several times: the edge
// order, and with it every byte Save writes, must not depend on the load.
func TestReadDIMACSDeterministic(t *testing.T) {
	const side = 12
	b := NewBuilder(side * side)
	for v := 0; v < side*side; v++ {
		b.AddVertex(geom.Point{X: int32(v % side), Y: int32(v / side)})
	}
	for v := 0; v < side*side; v++ {
		if v%side+1 < side {
			_ = b.AddEdge(VertexID(v), VertexID(v+1), Weight(1+v%7))
		}
		if v+side < side*side {
			_ = b.AddEdge(VertexID(v), VertexID(v+side), Weight(1+v%5))
		}
	}
	var gr, co bytes.Buffer
	if err := WriteGR(&gr, b.Build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCO(&co, b.Build()); err != nil {
		t.Fatal(err)
	}
	save := func() []byte {
		g, err := ReadDIMACS(bytes.NewReader(gr.Bytes()), bytes.NewReader(co.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save()
	for i := 0; i < 4; i++ {
		if !bytes.Equal(save(), first) {
			t.Fatalf("load %d saved different bytes than the first load of the same text", i+2)
		}
	}
}

func TestReadGRParallelEdgesKeepMinimum(t *testing.T) {
	in := `p sp 2 4
a 1 2 10
a 2 1 10
a 1 2 3
a 2 1 3
`
	_, edges, err := ReadGR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 || edges[0].Weight != 3 {
		t.Fatalf("parallel edges should collapse to minimum weight, got %+v", edges)
	}
}

func TestReadGRDropsSelfLoops(t *testing.T) {
	in := `p sp 2 3
a 1 1 5
a 1 2 7
a 2 1 7
`
	_, edges, err := ReadGR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("self loop should be dropped, got %+v", edges)
	}
}

func TestReadGRMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"missing problem line", "a 1 2 3\n"},
		{"no header at all", "c only a comment\n"},
		{"bad problem line", "p tsp 3 3\n"},
		{"non-integer weight", "p sp 2 1\na 1 2 x\n"},
		{"vertex out of range", "p sp 2 1\na 1 5 3\n"},
		{"zero weight", "p sp 2 1\na 1 2 0\n"},
		{"negative weight", "p sp 2 1\na 1 2 -4\n"},
		{"unknown record", "p sp 2 1\nz 1 2 3\n"},
		{"short arc line", "p sp 2 1\na 1 2\n"},
	}
	for _, c := range cases {
		if _, _, err := ReadGR(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadCOMalformed(t *testing.T) {
	cases := []struct {
		name, in string
		n        int
	}{
		{"missing vertex", "p aux sp co 2\nv 1 0 0\n", 2},
		{"id out of range", "v 9 0 0\n", 2},
		{"non-integer coord", "v 1 a 0\n", 1},
		{"short line", "v 1 0\n", 1},
		{"unknown record", "q 1 0 0\n", 1},
	}
	for _, c := range cases {
		if _, err := ReadCO(strings.NewReader(c.in), c.n); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
