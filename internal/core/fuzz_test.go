package core_test

import (
	"errors"
	"strings"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
	"roadnet/internal/testutil"
)

// FuzzLoad feeds arbitrary bytes to the file loaders and holds the two
// promises every loader makes about bytes from outside the program: a usable
// object or an error, never a panic; and an error that is typed. Each input
// is loaded as a file twice, verified from the heap and mapped with
// binio.WithoutVerify — the path -verify=false takes, where a mutation gets
// past the CRC sweep onto the six constructors' structural checks. Every
// error must be ErrCorrupt, ErrVersion or ErrNotFlat, or one of the two
// misconfiguration errors: a container of another kind, or an index built
// for a graph of another size. For the four index kinds it
// also holds the graph check: bytes that load on one graph are refused on a
// graph of another size, as built for a different graph. The seeds are the
// saved form of all six kinds (TNR hybrid), the CH file with a planted
// firstUp defect, the R-tree file with a leaf wider than the node capacity
// and each history form TestHistoryRefused refuses, each also cut short.
// What a query does over unverified bytes is not in scope here: such a file
// is trusted (docs/FORMAT.md).
func FuzzLoad(f *testing.F) {
	g, kinds := savedKinds(f)
	other := testutil.SmallRoad(40, 933)
	methods := core.FileMethods()
	var files [][]byte
	for _, sk := range kinds {
		files = append(files, sk.data)
		switch sk.name {
		case string(core.MethodCH):
			files = append(files, plantedFirstUp(f, sk.data))
		case "rtree":
			files = append(files, widenedLeaf(f, sk.data))
		}
	}
	for _, h := range historyForms(f, kinds) {
		files = append(files, h.data)
	}
	for _, file := range files {
		for _, cut := range []int{len(file), len(file) - 1, len(file) / 2, 64, 39} {
			f.Add(file[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			switch {
			case err == nil, errors.Is(err, binio.ErrCorrupt), errors.Is(err, binio.ErrVersion),
				errors.Is(err, binio.ErrNotFlat),
				strings.Contains(err.Error(), "container holds"), strings.Contains(err.Error(), "built for a"):
			default:
				t.Fatalf("untyped load error: %v", err)
			}
		}
		checkIndex := func(m core.Method, ix core.Index, err error, onOther func() error) {
			if err != nil {
				return
			}
			if st := ix.Stats(); st.Method != m || st.IndexBytes < 0 {
				t.Fatalf("%s bytes loaded as %+v", m, st)
			}
			if err := onOther(); err == nil || !strings.Contains(err.Error(), "built for a") {
				t.Fatalf("%s bytes that load on their own graph: on another graph err = %v, want a size mismatch", m, err)
			}
		}

		path := testutil.TempFile(t, "load", data)
		for _, leg := range []struct {
			mmap bool
			opts []binio.OpenOption
		}{{false, nil}, {true, []binio.OpenOption{binio.WithoutVerify()}}} {
			lg, err := graph.LoadFile(path, leg.mmap, leg.opts...)
			typed(err)
			if err == nil {
				if lg.NumVertices() < 0 {
					t.Fatalf("a graph of %d vertices loaded", lg.NumVertices())
				}
				lg.Close()
			}
			tr, err := rtree.LoadFile(path, leg.mmap, leg.opts...)
			typed(err)
			if err == nil {
				if tr.Len() < 0 || tr.Height() < 1 {
					t.Fatalf("a tree of %d entries and height %d loaded", tr.Len(), tr.Height())
				}
				tr.Close()
			}
			for _, m := range methods {
				ix, _, err := core.LoadIndexFile(m, path, g, leg.mmap, leg.opts...)
				typed(err)
				checkIndex(m, ix, err, func() error {
					_, _, err := core.LoadIndexFile(m, path, other, leg.mmap, leg.opts...)
					return err
				})
				if err == nil {
					core.CloseIndex(ix)
				}
			}
		}
	})
}
