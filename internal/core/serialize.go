package core

import (
	"fmt"
	"io"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
)

// SaveIndex serializes a built index. Supported methods are the ones with
// expensive preprocessing: CH, TNR and SILC. The baseline needs no index,
// and PCPD/ALT/ArcFlags rebuild quickly relative to their size on disk.
func SaveIndex(ix Index, w io.Writer) error {
	if in, ok := ix.(*index); ok {
		if s, ok := in.tech.(interface{ Save(io.Writer) error }); ok {
			return s.Save(w)
		}
	}
	return fmt.Errorf("core: method %s does not support serialization", ix.Method())
}

// LoadIndex deserializes an index of the given method and re-attaches it
// to g, which must be the network the index was built on.
func LoadIndex(method Method, r io.Reader, g *graph.Graph) (Index, error) {
	return binio.Read(r, func(f *binio.FlatFile) (Index, error) { return fromFlat(method, f, g) })
}

// fromFlat builds method's index over the open container f: the one
// per-method switch of both load paths. The index keeps f as its backing
// (see CloseIndex).
func fromFlat(method Method, f *binio.FlatFile, g *graph.Graph) (Index, error) {
	var (
		tech technique
		err  error
	)
	switch method {
	case MethodCH:
		tech, err = ch.HierarchyFromFlat(f, g)
	case MethodTNR:
		var t *tnr.Index
		if t, err = tnr.IndexFromFlat(f, g); err == nil && t.Access() != tnr.AccessCorrected {
			err = ErrFlawedTNR
		}
		tech = t
	case MethodSILC:
		tech, err = silc.IndexFromFlat(f, g)
	default:
		err = fmt.Errorf("core: method %s does not support serialization", method)
	}
	if err != nil {
		return nil, err
	}
	ix := newIndex(g, tech)
	ix.backing = f
	return ix, nil
}
