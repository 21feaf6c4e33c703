package ch

import (
	"fmt"
	"io"
	"time"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
)

// Serialization lets deployments build the hierarchy once and load it at
// startup. The format stores only the index structures; the road network
// itself travels separately (e.g. as DIMACS or binary graph files) and is
// re-attached at load time, with size checks guarding against mismatched
// graphs.
//
// The format is the flat zero-copy container of internal/binio: the rank
// permutation and the four arrays of the upward CSR are 64-byte-aligned
// sections that a loader can mmap and cast in place, so a loaded hierarchy
// is the same object as a built one. ReadHierarchy reads it from a stream;
// core.LoadIndexFile adds the mmap fast path.

const chMagic = "ROADNET-CH\n"

// Fourcc tags a flat container holding a contraction hierarchy.
const Fourcc uint32 = 'C' | 'H'<<8 | ' '<<16 | ' '<<24

// Save serializes the hierarchy as a flat container.
func (h *Hierarchy) Save(w io.Writer) error {
	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(chMagic)
	mw.I64(int64(h.g.NumVertices()))
	mw.I64(int64(h.g.NumEdges()))
	mw.I64(int64(h.numShortcuts))
	mw.I64(h.buildTime.Nanoseconds())
	fw.I32Section(h.rank)
	fw.I32Section(h.firstUp)
	fw.I32Section(h.upHead)
	fw.I32Section(h.upWeight)
	fw.I32Section(h.upMiddle)
	_, err := fw.WriteTo(w)
	return err
}

// ReadHierarchy deserializes a hierarchy previously written with Save,
// re-attaching it to g, which must be the same road network the hierarchy
// was built on. This is the copying stream path; use core.LoadIndexFile for
// the zero-copy mmap path. A stream that is not a flat container is
// binio.ErrNotFlat.
func ReadHierarchy(r io.Reader, g *graph.Graph) (*Hierarchy, error) {
	return binio.Read(r, func(f *binio.FlatFile) (*Hierarchy, error) { return HierarchyFromFlat(f, g) })
}

// HierarchyFromFlat builds a hierarchy over the sections of f. The
// hierarchy aliases f's data; f must stay open for its lifetime.
func HierarchyFromFlat(f *binio.FlatFile, g *graph.Graph) (*Hierarchy, error) {
	d := f.Decode(Fourcc, chMagic)
	n := d.I64()
	m := d.I64()
	h := &Hierarchy{g: g}
	h.numShortcuts = int(d.I64())
	h.buildTime = time.Duration(d.I64())
	h.rank = d.I32s(0)
	h.firstUp = d.I32s(1)
	h.upHead = d.I32s(2)
	h.upWeight = d.I32s(3)
	h.upMiddle = d.I32s(4)
	if err := d.Done(5); err != nil {
		return nil, fmt.Errorf("ch: %w", err)
	}
	if n != int64(g.NumVertices()) || m != int64(g.NumEdges()) {
		return nil, fmt.Errorf("ch: index was built for a %dx%d graph, got %dx%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	// O(1) structural checks. Loads deliberately run no per-element scan so
	// a mapped index touches no data pages at startup; the sections are
	// trusted to the format that produced them (and to its checksums).
	arcs := len(h.upHead)
	if len(h.rank) != int(n) || len(h.firstUp) != int(n)+1 ||
		len(h.upWeight) != arcs || len(h.upMiddle) != arcs {
		return nil, fmt.Errorf("%w: ch index arrays sized for a different graph", binio.ErrCorrupt)
	}
	if n > 0 && int(h.firstUp[n]) != arcs {
		return nil, fmt.Errorf("%w: ch firstUp does not cover the arc array", binio.ErrCorrupt)
	}
	return h, nil
}
