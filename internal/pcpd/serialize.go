package pcpd

import (
	"fmt"
	"io"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
)

// Serialization: PCPD preprocessing is all-pairs shortest paths (§3.5), so
// the built index is worth keeping. Save writes the tree's slots and the
// collision table run's keys and ψ as the sections of a flat container,
// which a loader can mmap and cast in place. The Morton codes and the edges
// ψ resolves to depend only on the graph, so a load recomputes them from
// the graph it serves in O(n+m).

const pcpdMagic = "ROADNET-PCPD\n"

// Fourcc tags a flat container holding a PCPD index.
const Fourcc uint32 = 'P' | 'C'<<8 | 'P'<<16 | 'D'<<24

// Save serializes the index as a flat container.
func (ix *Index) Save(w io.Writer) error {
	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(pcpdMagic)
	mw.I64(int64(ix.g.NumVertices()))
	mw.I64(int64(ix.g.NumEdges()))
	mw.I64(ix.numPairs)
	mw.I64(ix.numNodes)
	mw.I32(int32(ix.root))
	fw.U32Section(ix.slots)
	fw.U32Section(ix.tableKeys)
	fw.U32Section(ix.tablePsi)
	_, err := fw.WriteTo(w)
	return err
}

// IndexFromFlat builds an index over the sections of f. The index aliases
// f's data; f must stay open for its lifetime.
func IndexFromFlat(f *binio.FlatFile, g *graph.Graph) (*Index, error) {
	d := f.Decode(Fourcc, pcpdMagic)
	n := d.I64()
	m := d.I64()
	numPairs := d.I64()
	numNodes := d.I64()
	root := uint32(d.I32())
	slots := d.U32s(0)
	tableKeys := d.U32s(1)
	tablePsi := d.U32s(2)
	if err := d.Done(3); err != nil {
		return nil, fmt.Errorf("pcpd: %w", err)
	}
	if n != int64(g.NumVertices()) || m != int64(g.NumEdges()) {
		return nil, fmt.Errorf("pcpd: index was built for a %dx%d graph, got %dx%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	// O(1) structural checks; per-element scans are deliberately skipped so
	// a mapped load touches no data pages.
	if len(slots)%16 != 0 || len(tableKeys) != len(tablePsi) {
		return nil, fmt.Errorf("%w: pcpd slots of %d words, table run of %d keys and %d ψ",
			binio.ErrCorrupt, len(slots), len(tableKeys), len(tablePsi))
	}
	if tag := root & tagMask; tag >= tagTask || tag == tagSplit && int(root>>tagBits) >= len(slots)/16 {
		return nil, fmt.Errorf("%w: pcpd root slot %#x outside the tree", binio.ErrCorrupt, root)
	}
	ix := newIndex(g)
	ix.numPairs, ix.numNodes = numPairs, numNodes
	ix.slots, ix.root, ix.tableKeys, ix.tablePsi = slots, root, tableKeys, tablePsi
	return ix, nil
}
