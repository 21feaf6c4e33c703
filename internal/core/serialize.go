package core

import (
	"fmt"
	"io"

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
	var (
		tech technique
		err  error
	)
	switch method {
	case MethodCH:
		tech, err = ch.ReadHierarchy(r, g)
	case MethodTNR:
		tech, err = tnr.ReadIndex(r, g)
	case MethodSILC:
		tech, err = silc.ReadIndex(r, g)
	default:
		err = fmt.Errorf("core: method %s does not support serialization", method)
	}
	if err != nil {
		return nil, err
	}
	return newIndex(g, tech), nil
}
