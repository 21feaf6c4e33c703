package tnr

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// Serialization: TNR preprocessing dominates everything but SILC/PCPD
// (Figure 6(b)), so the built tables can be persisted. The embedded
// contraction hierarchy (used for fallback queries and shared
// preprocessing) is stored inline.
//
// Save writes the flat container: the access-node distance tables —
// the multi-GB part of a continental index — are 64-byte-aligned sections
// a loader can mmap and use in place; ragged per-vertex/per-cell rows are
// stored as offsets + concatenated data and rebuilt as views (one slice-
// header allocation per ragged array, no data copies). The embedded CH is
// a nested flat container inside a byte section, so it too loads zero-
// copy.

const tnrMagic = "ROADNET-TNR\n"

// Fourcc tags a flat container holding a TNR index.
const Fourcc uint32 = 'T' | 'N'<<8 | 'R'<<16 | ' '<<24

// Save serializes the index, including its contraction hierarchy, as a
// flat container.
func (ix *Index) Save(w io.Writer) error {
	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(tnrMagic)
	mw.I64(int64(ix.g.NumVertices()))
	mw.I64(int64(ix.g.NumEdges()))
	mw.I32(int32(ix.opts.GridSize))
	mw.U8(boolByte(ix.opts.Hybrid))
	mw.U8(uint8(ix.opts.Fallback))
	mw.U8(uint8(ix.opts.Access))
	mw.I64(ix.buildTime.Nanoseconds())

	var chBuf bytes.Buffer
	if err := ix.hierarchy.Save(&chBuf); err != nil {
		return err
	}
	fw.U8Section(chBuf.Bytes())

	addLayer(fw, mw, ix.coarse)
	if ix.opts.Hybrid {
		addLayer(fw, mw, ix.fine)
	}
	_, err := fw.WriteTo(w)
	return err
}

// addLayer appends one layer as ten fixed-position sections (unused table
// forms stay empty) plus a density flag in the metadata blob.
func addLayer(fw *binio.FlatWriter, mw *binio.Writer, l *layer) {
	mw.U8(boolByte(l.table != nil))
	fw.I32Section(l.anList)
	fw.I32Section(l.cellOf)
	cellOff, cellData := binio.Flatten(l.cellAN)
	fw.I64Section(cellOff)
	fw.I32Section(cellData)
	vaOff, vaData := binio.Flatten(l.vaDist)
	fw.I64Section(vaOff)
	fw.I32Section(vaData)
	fw.I32Section(l.table)
	var sparseOff []int64
	var partnerData, distData []int32
	if l.table == nil {
		sparseOff, partnerData = binio.Flatten(l.sparsePartner)
		_, distData = binio.Flatten(l.sparseDist)
	}
	fw.I64Section(sparseOff)
	fw.I32Section(partnerData)
	fw.I32Section(distData)
}

// ReadIndex deserializes an index written with Save, re-attaching it to g
// (the same network it was built on). This is the copying stream path; use
// core.LoadIndexFile for the zero-copy mmap path. A stream that is not a
// flat container is binio.ErrNotFlat.
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	return binio.Read(r, func(f *binio.FlatFile) (*Index, error) { return IndexFromFlat(f, g) })
}

// IndexFromFlat builds an index over the sections of f. The index aliases
// f's data; f must stay open for its lifetime.
func IndexFromFlat(f *binio.FlatFile, g *graph.Graph) (*Index, error) {
	d := f.Decode(Fourcc, tnrMagic)
	n := d.I64()
	m := d.I64()
	var opts Options
	opts.GridSize = int(d.I32())
	opts.Hybrid = d.U8() != 0
	opts.Fallback = Fallback(d.U8())
	opts.Access = AccessAlgorithm(d.U8())
	buildTime := time.Duration(d.I64())
	chFile := d.Nested(0)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tnr: %w", err)
	}
	if n != int64(g.NumVertices()) || m != int64(g.NumEdges()) {
		return nil, fmt.Errorf("tnr: index was built for a %dx%d graph, got %dx%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	if opts.GridSize < 1 || opts.GridSize > 1<<14 {
		return nil, fmt.Errorf("tnr: implausible grid size %d", opts.GridSize)
	}
	if opts.Fallback > FallbackDijkstra || opts.Access > AccessFlawedBast {
		return nil, fmt.Errorf("%w: tnr fallback %d or access algorithm %d is not one this reader knows",
			binio.ErrCorrupt, opts.Fallback, opts.Access)
	}

	h, err := ch.HierarchyFromFlat(chFile, g)
	if err != nil {
		return nil, fmt.Errorf("tnr: embedded hierarchy: %w", err)
	}
	opts.Hierarchy = h

	ix := &Index{
		g:         g,
		opts:      opts,
		hierarchy: h,
		buildTime: buildTime,
	}
	if ix.coarse, err = layerFromFlat(d, g, opts.GridSize, 1); err != nil {
		return nil, err
	}
	sections := 11
	if opts.Hybrid {
		if ix.fine, err = layerFromFlat(d, g, opts.GridSize*2, 11); err != nil {
			return nil, err
		}
		sections = 21
	}
	if err := d.Done(sections); err != nil {
		return nil, fmt.Errorf("tnr: %w", err)
	}
	return ix, nil
}

// layerFromFlat rebuilds a layer from the ten sections starting at base.
// The outer slices of the ragged tables are views into the (possibly
// mapped) data sections: one header allocation each, no element copies or
// scans, so a mapped load touches no data pages.
func layerFromFlat(d *binio.Reader, g *graph.Graph, gridSize, base int) (*layer, error) {
	dense := d.U8() != 0
	l := &layer{grid: geom.NewGrid(g.Bounds(), gridSize, gridSize)}
	l.anList = d.I32s(base)
	l.cellOf = d.I32s(base + 1)
	cellOff, cellData := d.I64s(base+2), d.I32s(base+3)
	vaOff, vaData := d.I64s(base+4), d.I32s(base+5)
	var sparseOff []int64
	var partnerData, distData []int32
	if dense {
		l.table = d.I32s(base + 6)
	} else {
		sparseOff, partnerData, distData = d.I64s(base+7), d.I32s(base+8), d.I32s(base+9)
	}
	fail := func(err error) (*layer, error) { return nil, fmt.Errorf("tnr: reading layer: %w", err) }
	err := d.Err()
	if err != nil {
		return fail(err)
	}
	if len(l.cellOf) != g.NumVertices() {
		return nil, fmt.Errorf("%w: tnr cellOf sized for a different graph", binio.ErrCorrupt)
	}
	if int64(len(cellOff)-1) != int64(l.grid.NumCells()) {
		return nil, fmt.Errorf("tnr: layer has %d cells, grid expects %d", len(cellOff)-1, l.grid.NumCells())
	}
	if l.cellAN, err = binio.Unflatten(cellOff, cellData); err != nil {
		return fail(err)
	}
	if len(vaOff)-1 != g.NumVertices() {
		return nil, fmt.Errorf("tnr: vaDist has %d rows, graph has %d vertices", len(vaOff)-1, g.NumVertices())
	}
	if l.vaDist, err = binio.Unflatten(vaOff, vaData); err != nil {
		return fail(err)
	}
	if dense {
		if l.table == nil {
			// Preserve the dense marker (minPlus branches on table != nil)
			// even for a degenerate layer with no access nodes.
			l.table = []int32{}
		}
		if len(l.table) != len(l.anList)*len(l.anList) {
			return nil, fmt.Errorf("tnr: dense table size %d does not match %d access nodes",
				len(l.table), len(l.anList))
		}
	} else {
		if len(sparseOff)-1 != len(l.anList) {
			return nil, fmt.Errorf("tnr: sparse table rows %d do not match %d access nodes",
				len(sparseOff)-1, len(l.anList))
		}
		if len(partnerData) != len(distData) {
			return nil, fmt.Errorf("%w: tnr sparse partner/distance sections differ in length", binio.ErrCorrupt)
		}
		if l.sparsePartner, err = binio.Unflatten(sparseOff, partnerData); err != nil {
			return fail(err)
		}
		if l.sparseDist, err = binio.Unflatten(sparseOff, distData); err != nil {
			return fail(err)
		}
	}
	return l, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
