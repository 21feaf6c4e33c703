package core

import (
	"fmt"
	"io"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
)

// loaders holds, in order, the methods with a file format and the
// constructor that builds each one over an open container: the one
// per-method table of LoadIndexFile and of FileMethods. The baseline has
// no index, and ALT and arc flags have no file format.
var loaders = []struct {
	method Method
	load   func(*binio.FlatFile, *graph.Graph) (technique, error)
}{
	{MethodCH, func(f *binio.FlatFile, g *graph.Graph) (technique, error) { return ch.HierarchyFromFlat(f, g) }},
	{MethodTNR, func(f *binio.FlatFile, g *graph.Graph) (technique, error) { return tnr.IndexFromFlat(f, g) }},
	{MethodSILC, func(f *binio.FlatFile, g *graph.Graph) (technique, error) { return silc.IndexFromFlat(f, g) }},
	{MethodPCPD, func(f *binio.FlatFile, g *graph.Graph) (technique, error) { return pcpd.IndexFromFlat(f, g) }},
}

// FileMethods lists the methods with a file format, the ones SaveIndex and
// LoadIndexFile accept.
func FileMethods() []Method {
	ms := make([]Method, len(loaders))
	for i, l := range loaders {
		ms[i] = l.method
	}
	return ms
}

// SaveIndex serializes a built index of one of FileMethods.
func SaveIndex(ix Index, w io.Writer) error {
	if in, ok := ix.(*index); ok {
		if s, ok := in.tech.(interface{ Save(io.Writer) error }); ok {
			return s.Save(w)
		}
	}
	return fmt.Errorf("core: method %s does not support serialization", ix.Method())
}

// fromFlat builds method's index over the open container f through its
// entry in loaders. The index keeps f as its backing (see CloseIndex).
func fromFlat(method Method, f *binio.FlatFile, g *graph.Graph) (Index, error) {
	for _, l := range loaders {
		if l.method != method {
			continue
		}
		tech, err := l.load(f, g)
		if err != nil {
			return nil, err
		}
		ix := newIndex(g, tech)
		ix.backing = f
		return ix, nil
	}
	return nil, fmt.Errorf("core: method %s does not support serialization", method)
}
