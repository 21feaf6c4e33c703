package rtree

// Flat v2 serialization. The tree's nodes are index-addressed arrays
// already, so the container is a direct image: per-node rectangles and
// leaf flags, plus CSR-style (offset, data) pairs for child lists and
// entry lists. A mapped load reconstructs the node table in O(#nodes)
// while the bulky child/entry arrays stay zero-copy casts of the page
// cache, so the spatial tier mmaps alongside the graph and route indexes.

import (
	"fmt"
	"io"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
)

// Fourcc tags a flat container holding a serialized R-tree.
const Fourcc uint32 = 'R' | 'T'<<8 | 'R'<<16 | 'E'<<24

const treeMeta = "ROADNET-RTREE\n"

// Save writes t as a flat v2 container.
func (t *Tree) Save(w io.Writer) error {
	nNodes := len(t.nodes)
	rects := make([]int32, 0, 4*nNodes)
	leaf := make([]uint8, nNodes)
	kidOff := make([]int64, nNodes+1)
	entOff := make([]int64, nNodes+1)
	var kids []int32
	var ents []int32
	for i, n := range t.nodes {
		rects = append(rects, n.rect.MinX, n.rect.MinY, n.rect.MaxX, n.rect.MaxY)
		if n.leaf {
			leaf[i] = 1
		}
		kids = append(kids, n.kids...)
		for _, e := range n.ents {
			ents = append(ents, e.P.X, e.P.Y, e.ID)
		}
		kidOff[i+1] = int64(len(kids))
		entOff[i+1] = int64(len(ents) / 3)
	}

	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(treeMeta)
	mw.I64(int64(t.size))
	mw.I64(int64(t.height))
	mw.I64(int64(t.root))
	mw.I64(int64(nNodes))
	fw.I32Section(rects)
	fw.U8Section(leaf)
	fw.I64Section(kidOff)
	fw.I32Section(kids)
	fw.I64Section(entOff)
	fw.I32Section(ents)
	_, err := fw.WriteTo(w)
	return err
}

// LoadFile maps (or, with preferMmap false or where unsupported, reads)
// the tree file at path. Call Close on the returned tree when it is no
// longer used.
//
// The file's checksums are verified before the tree is used; pass
// binio.WithoutVerify to skip the sweep and keep mapped loads
// O(#sections).
func LoadFile(path string, preferMmap bool, opts ...binio.OpenOption) (*Tree, error) {
	return binio.Load(path, preferMmap, TreeFromFlat, opts...)
}

// TreeFromFlat builds a tree over the sections of f. The tree's child and
// entry arrays alias f's data and the tree keeps f as its backing; f must
// stay open for the tree's lifetime, and the tree must not be Inserted into
// (loaded trees are query-only).
func TreeFromFlat(f *binio.FlatFile) (*Tree, error) {
	d := f.Decode(Fourcc, treeMeta)
	size := d.I64()
	height := d.I64()
	root := d.I64()
	nNodes := d.I64()
	rects := d.I32s(0)
	leaf := d.U8s(1)
	kidOff := d.I64s(2)
	kidsRaw := d.I32s(3)
	entOff := d.I64s(4)
	ents := binio.CastStructs[Entry](d.I32s(5))
	if err := d.Done(6); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}

	if nNodes <= 0 || size < 0 || height < 1 ||
		root < 0 || root >= nNodes ||
		int64(len(rects)) != 4*nNodes || int64(len(leaf)) != nNodes ||
		int64(len(kidOff)) != nNodes+1 || int64(len(entOff)) != nNodes+1 ||
		kidOff[nNodes] != int64(len(kidsRaw)) || entOff[nNodes] != int64(len(ents)) {
		return nil, fmt.Errorf("%w: r-tree sections do not match header (%d nodes, %d entries)",
			binio.ErrCorrupt, nNodes, size)
	}

	t := &Tree{
		root:    int32(root),
		size:    int(size),
		height:  int(height),
		nodes:   make([]node, nNodes),
		backing: f,
	}
	for i := int64(0); i < nNodes; i++ {
		ka, kb := kidOff[i], kidOff[i+1]
		ea, eb := entOff[i], entOff[i+1]
		if ka < 0 || kb < ka || kb > int64(len(kidsRaw)) ||
			ea < 0 || eb < ea || eb > int64(len(ents)) {
			return nil, fmt.Errorf("%w: r-tree node %d offsets out of range", binio.ErrCorrupt, i)
		}
		if kb-ka > maxEntries || eb-ea > maxEntries {
			return nil, fmt.Errorf("%w: r-tree node %d holds %d children and %d entries, more than %d",
				binio.ErrCorrupt, i, kb-ka, eb-ea, maxEntries)
		}
		n := &t.nodes[i]
		n.rect = geom.Rect{MinX: rects[4*i], MinY: rects[4*i+1], MaxX: rects[4*i+2], MaxY: rects[4*i+3]}
		n.leaf = leaf[i] != 0
		// Full slice expressions: nothing may append into the mapped data.
		n.kids = kidsRaw[ka:kb:kb]
		n.ents = ents[ea:eb:eb]
		for _, k := range n.kids {
			if int64(k) < 0 || int64(k) >= nNodes {
				return nil, fmt.Errorf("%w: r-tree node %d references child %d of %d", binio.ErrCorrupt, i, k, nNodes)
			}
		}
	}
	return t, nil
}

// Backing returns the flat container the tree was loaded from, nil for a
// bulk-loaded tree (see graph.Graph.Backing).
func (t *Tree) Backing() *binio.FlatFile { return t.backing }

// Close releases the file mapping behind a tree returned by LoadFile. The
// tree must not be used afterwards. It is a no-op for built trees.
func (t *Tree) Close() error { return t.backing.Close() }
