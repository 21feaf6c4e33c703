package graph

// Binary CSR serialization. Parsing DIMACS text for a continental-scale
// network takes longer than building some of the cheap indexes, so spserve
// persists the parsed CSR arrays in the flat v2 container (internal/binio)
// and maps them back in O(1): the adjacency arrays, weights, edge ids and
// coordinates are 64-byte-aligned little-endian sections that load as
// zero-copy casts of the page cache.

import (
	"fmt"
	"io"
	"unsafe"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
)

// GraphFourcc tags a flat container holding a serialized road network.
const GraphFourcc uint32 = 'G' | 'R'<<8 | 'P'<<16 | 'H'<<24

const graphMeta = "ROADNET-GRAPH\n"

// Save writes g as a flat v2 container.
func (g *Graph) Save(w io.Writer) error {
	fw := binio.NewFlatWriter(GraphFourcc)
	mw := fw.Meta()
	mw.Magic(graphMeta)
	mw.I64(int64(g.NumVertices()))
	mw.I64(int64(g.numEdges))
	mw.I32(g.bounds.MinX)
	mw.I32(g.bounds.MinY)
	mw.I32(g.bounds.MaxX)
	mw.I32(g.bounds.MaxY)
	fw.I32Section(g.firstOut)
	fw.I32Section(g.head)
	fw.I32Section(g.weight)
	fw.I32Section(g.edgeID)
	fw.I32Section(pointsAsI32(g.coords))
	_, err := fw.WriteTo(w)
	return err
}

// LoadFile maps (or, with preferMmap false or where unsupported, reads)
// the graph file at path. A mapped graph's arrays alias the page cache:
// loading is O(1) and the resident memory is shared with every other
// process serving the same file. Call Close on the returned graph when it
// is no longer used.
//
// The file's checksums are verified before the graph is used — a flipped
// byte fails the load with binio.ErrCorrupt instead of routing over a
// silently wrong network. Pass binio.WithoutVerify to skip the
// verification sweep (mapped loads then stay O(#sections)).
func LoadFile(path string, preferMmap bool, opts ...binio.OpenOption) (*Graph, error) {
	return binio.Load(path, preferMmap, GraphFromFlat, opts...)
}

// GraphFromFlat builds a graph over the sections of f. The graph aliases
// f's data and keeps f as its backing; f must stay open for the graph's
// lifetime.
func GraphFromFlat(f *binio.FlatFile) (*Graph, error) {
	d := f.Decode(GraphFourcc, graphMeta)
	n := d.I64()
	m := d.I64()
	g := &Graph{numEdges: int(m), backing: f}
	g.bounds.MinX = d.I32()
	g.bounds.MinY = d.I32()
	g.bounds.MaxX = d.I32()
	g.bounds.MaxY = d.I32()
	g.firstOut = d.I32s(0)
	g.head = d.I32s(1)
	g.weight = d.I32s(2)
	g.edgeID = d.I32s(3)
	g.coords = binio.CastStructs[geom.Point](d.I32s(4))
	if err := d.Done(5); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}

	// O(1) structural checks; the arrays themselves are trusted to the
	// format (they were produced by Save) and are not scanned, so a mapped
	// load touches no data pages.
	if n < 0 || m < 0 || int64(len(g.firstOut)) != n+1 ||
		int64(len(g.coords)) != n || int64(len(g.head)) != 2*m {
		return nil, fmt.Errorf("%w: graph sections sized for %d vertices / %d edges do not match header",
			binio.ErrCorrupt, len(g.firstOut)-1, len(g.head)/2)
	}
	if len(g.weight) != len(g.head) || len(g.edgeID) != len(g.head) {
		return nil, fmt.Errorf("%w: inconsistent arc array lengths", binio.ErrCorrupt)
	}
	if n > 0 && int(g.firstOut[n]) != len(g.head) {
		return nil, fmt.Errorf("%w: firstOut does not cover the arc array", binio.ErrCorrupt)
	}
	return g, nil
}

// Backing returns the flat container the graph was loaded from, nil for a
// built graph. It answers whether the graph's arrays are mapped and whether
// its bytes are verified (a nil backing is: nothing came off disk).
func (g *Graph) Backing() *binio.FlatFile { return g.backing }

// Close releases the file mapping behind a graph returned by LoadFile. The
// graph (and every index attached to it) must not be used afterwards. It
// is a no-op for built or heap-read graphs.
func (g *Graph) Close() error { return g.backing.Close() }

// pointsAsI32 reinterprets the coordinate array as its int32 layout
// (geom.Point is exactly two int32s).
func pointsAsI32(pts []geom.Point) []int32 {
	if len(pts) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&pts[0])), 2*len(pts))
}
