package silc

import (
	"fmt"
	"io"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// Serialization: SILC preprocessing is all-pairs shortest paths (§3.4,
// hours on the paper's datasets), so persisting the built index matters
// even more than for CH.
//
// Save writes the flat container: the per-source interval tables — the
// O(n sqrt n) bulk of the index — are stored as shared offsets plus
// concatenated starts/colors sections a loader can mmap and view in place,
// and the exception runs are written as the index holds them.

const silcMagic = "ROADNET-SILC\n"

// Fourcc tags a flat container holding a SILC index.
const Fourcc uint32 = 'S' | 'I'<<8 | 'L'<<16 | 'C'<<24

// Save serializes the index as a flat container.
func (ix *Index) Save(w io.Writer) error {
	n := ix.g.NumVertices()
	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(silcMagic)
	mw.I64(int64(n))
	mw.I64(int64(ix.g.NumEdges()))
	mw.U8(uint8(ix.norm.Bits()))
	mw.I64(ix.intervals)

	rowOff, startsData := binio.Flatten(ix.starts)
	_, colorsData := binio.Flatten(ix.colors)
	fw.I64Section(rowOff)
	fw.U32Section(startsData)
	fw.U8Section(colorsData)
	fw.U32Section(ix.code)
	fw.I64Section(ix.excOff)
	fw.I32Section(ix.excTarget)
	fw.U8Section(ix.excColor)
	_, err := fw.WriteTo(w)
	return err
}

// IndexFromFlat builds an index over the sections of f. The index aliases
// f's data; f must stay open for its lifetime.
func IndexFromFlat(f *binio.FlatFile, g *graph.Graph) (*Index, error) {
	d := f.Decode(Fourcc, silcMagic)
	n := d.I64()
	m := d.I64()
	bits := uint(d.U8())
	ix := &Index{g: g}
	ix.intervals = d.I64()
	rowOff, startsData, colorsData := d.I64s(0), d.U32s(1), d.U8s(2)
	ix.code = d.U32s(3)
	ix.excOff = d.I64s(4)
	ix.excTarget = d.I32s(5)
	ix.excColor = d.U8s(6)
	fail := func(err error) (*Index, error) { return nil, fmt.Errorf("silc: %w", err) }
	err := d.Done(7)
	if err != nil {
		return fail(err)
	}
	if n != int64(g.NumVertices()) || m != int64(g.NumEdges()) {
		return nil, fmt.Errorf("silc: index was built for a %dx%d graph, got %dx%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	if bits != quadBits {
		return nil, fmt.Errorf("%w: silc normalizer bits %d, want %d", binio.ErrCorrupt, bits, quadBits)
	}
	ix.norm = geom.NewNormalizer(g.Bounds(), quadBits)
	// O(1) structural checks; per-element scans are deliberately skipped so
	// a mapped load touches no data pages.
	if int64(len(rowOff))-1 != n {
		return nil, fmt.Errorf("%w: silc interval tables have %d rows, graph has %d vertices", binio.ErrCorrupt, len(rowOff)-1, n)
	}
	if len(startsData) != len(colorsData) {
		return nil, fmt.Errorf("%w: silc starts/colors sections differ in length", binio.ErrCorrupt)
	}
	if ix.starts, err = binio.Unflatten(rowOff, startsData); err != nil {
		return fail(err)
	}
	if ix.colors, err = binio.Unflatten(rowOff, colorsData); err != nil {
		return fail(err)
	}
	if int64(len(ix.code)) != n {
		return nil, fmt.Errorf("%w: silc code table sized for a different graph", binio.ErrCorrupt)
	}
	if int64(len(ix.excOff))-1 != n {
		return nil, fmt.Errorf("%w: silc exception offsets sized for a different graph", binio.ErrCorrupt)
	}
	if len(ix.excTarget) != len(ix.excColor) {
		return nil, fmt.Errorf("%w: silc exception target/color sections differ in length", binio.ErrCorrupt)
	}
	// Validate the offsets the same way Unflatten would, without building
	// row views: exception rows are sliced lazily in exceptionColor.
	if _, err := binio.Unflatten(ix.excOff, ix.excTarget); err != nil {
		return fail(err)
	}
	return ix, nil
}
