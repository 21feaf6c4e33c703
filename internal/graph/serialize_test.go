package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Generate(gen.Params{N: 500, Seed: 7})
}

// sameGraph asserts g and h are structurally identical.
func sameGraph(t *testing.T, g, h *graph.Graph) {
	t.Helper()
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() || h.NumArcs() != g.NumArcs() {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			h.NumVertices(), h.NumEdges(), h.NumArcs(),
			g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if h.Bounds() != g.Bounds() {
		t.Errorf("bounds differ: %v vs %v", h.Bounds(), g.Bounds())
	}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if h.Coord(v) != g.Coord(v) {
			t.Fatalf("coord of %d differs", v)
		}
		glo, ghi := g.ArcsOf(v)
		hlo, hhi := h.ArcsOf(v)
		if glo != hlo || ghi != hhi {
			t.Fatalf("arc range of %d differs", v)
		}
		for a := glo; a < ghi; a++ {
			if g.Head(a) != h.Head(a) || g.ArcWeight(a) != h.ArcWeight(a) || g.EdgeIDOf(a) != h.EdgeIDOf(a) {
				t.Fatalf("arc %d of %d differs", a, v)
			}
		}
	}
}

// load opens data as a graph file read onto the heap.
func load(t *testing.T, data []byte) (*graph.Graph, error) {
	t.Helper()
	return graph.LoadFile(testutil.TempFile(t, "net.graph", data), false)
}

// saved returns the bytes g.Save writes.
func saved(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGraphSaveReadRoundtrip(t *testing.T) {
	g := testGraph(t)
	h, err := load(t, saved(t, g))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, h)
}

func TestGraphLoadFile(t *testing.T) {
	g := testGraph(t)
	path := testutil.TempFile(t, "net.graph", saved(t, g))
	for _, preferMmap := range []bool{false, true} {
		h, err := graph.LoadFile(path, preferMmap)
		if err != nil {
			t.Fatalf("preferMmap=%v: %v", preferMmap, err)
		}
		sameGraph(t, g, h)
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphReadRejectsGarbage(t *testing.T) {
	if _, err := load(t, []byte("p sp 5 4\n")); err == nil {
		t.Error("DIMACS text accepted as a binary graph")
	}
	if _, err := load(t, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestGraphReadRejectsTruncation(t *testing.T) {
	data := saved(t, testGraph(t))
	for _, cut := range []int{10, 40, len(data) / 2, len(data) - 3} {
		if _, err := load(t, data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestGraphReadRejectsFlippedByte flips a byte in the weight section, which
// no structural check reads: only its checksum can tell.
func TestGraphReadRejectsFlippedByte(t *testing.T) {
	bad := saved(t, testGraph(t))
	bad[binary.LittleEndian.Uint64(bad[40+24*2+8:])] ^= 1 // section 2's offset, from the section table
	if _, err := load(t, bad); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
}
