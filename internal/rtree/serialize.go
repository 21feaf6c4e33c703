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
	mw.I64(int64(t.max))
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

// ReadTree reads a tree written by Save from a stream (the copying path;
// use LoadFile to map the file instead).
func ReadTree(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f, err := binio.ParseFlat(data, true)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	return TreeFromFlat(f)
}

// LoadFile maps (or, with preferMmap false or where unsupported, reads)
// the tree file at path. Call Close on the returned tree when it is no
// longer used.
//
// By default the file's checksums are verified before the tree is used;
// pass binio.WithoutVerify to skip the sweep and keep mapped loads
// O(#sections).
func LoadFile(path string, preferMmap bool, opts ...binio.OpenOption) (*Tree, error) {
	f, err := binio.OpenFlat(path, preferMmap, append([]binio.OpenOption{binio.WithVerify()}, opts...)...)
	if err != nil {
		return nil, err
	}
	t, err := TreeFromFlat(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.backing = f
	return t, nil
}

// TreeFromFlat builds a tree over the sections of f. The tree's child and
// entry arrays alias f's data; f must stay open for the tree's lifetime,
// and the tree must not be Inserted into (loaded trees are query-only).
func TreeFromFlat(f *binio.FlatFile) (*Tree, error) {
	if f.Fourcc() != Fourcc {
		return nil, fmt.Errorf("rtree: container holds %q, not an R-tree", fourccString(f.Fourcc()))
	}
	mr := f.Meta()
	mr.Magic(treeMeta)
	maxEnts := mr.I64()
	size := mr.I64()
	height := mr.I64()
	root := mr.I64()
	nNodes := mr.I64()
	if err := mr.Err(); err != nil {
		return nil, fmt.Errorf("rtree: reading header: %w", err)
	}
	rects, err := f.I32(0)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	leaf, err := f.U8(1)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	kidOff, err := f.I64(2)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	kidsRaw, err := f.I32(3)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	entOff, err := f.I64(4)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	entsRaw, err := f.I32(5)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	ents := binio.CastStructs[Entry](entsRaw)

	if nNodes <= 0 || maxEnts < 4 || size < 0 || height < 1 ||
		root < 0 || root >= nNodes ||
		int64(len(rects)) != 4*nNodes || int64(len(leaf)) != nNodes ||
		int64(len(kidOff)) != nNodes+1 || int64(len(entOff)) != nNodes+1 ||
		kidOff[nNodes] != int64(len(kidsRaw)) || entOff[nNodes] != int64(len(ents)) {
		return nil, fmt.Errorf("%w: r-tree sections do not match header (%d nodes, %d entries)",
			binio.ErrCorrupt, nNodes, size)
	}

	t := &Tree{
		max:    int(maxEnts),
		root:   int32(root),
		size:   int(size),
		height: int(height),
		nodes:  make([]node, nNodes),
	}
	for i := int64(0); i < nNodes; i++ {
		ka, kb := kidOff[i], kidOff[i+1]
		ea, eb := entOff[i], entOff[i+1]
		if ka < 0 || kb < ka || kb > int64(len(kidsRaw)) ||
			ea < 0 || eb < ea || eb > int64(len(ents)) {
			return nil, fmt.Errorf("%w: r-tree node %d offsets out of range", binio.ErrCorrupt, i)
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

// Close releases the file mapping behind a tree returned by LoadFile. The
// tree must not be used afterwards. It is a no-op for built trees.
func (t *Tree) Close() error {
	if t.backing == nil {
		return nil
	}
	b := t.backing
	t.backing = nil
	return b.Close()
}

// Mapped reports whether the tree's arrays alias an mmap'd file.
func (t *Tree) Mapped() bool { return t.backing != nil && t.backing.Mapped() }

// Verified reports whether the tree's bytes are known-good: either it was
// bulk-loaded in this process, or its backing file carried checksums that
// passed verification. It is false for file loads that skipped
// verification and for checksum-less legacy files.
func (t *Tree) Verified() bool { return t.backing == nil || t.backing.Verified() }

func fourccString(fourcc uint32) string {
	b := []byte{byte(fourcc), byte(fourcc >> 8), byte(fourcc >> 16), byte(fourcc >> 24)}
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			b[i] = '?'
		}
	}
	return string(b)
}
