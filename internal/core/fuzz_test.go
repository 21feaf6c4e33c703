package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
	"roadnet/internal/testutil"
)

// FuzzLoad feeds arbitrary bytes to the load paths and holds the property
// every loader promises about bytes from outside the program: a usable
// object or an error, never a panic. Each input goes through binio's stream
// entry, which verifies every checksum, and through the file loaders with
// binio.WithoutVerify — the path -verify=false takes, where a mutation gets
// past the CRC sweep onto the six constructors' structural checks. For the
// four index kinds it also holds the graph check: bytes that load on one
// graph are refused on a graph of another size, as built for a different
// graph. The seeds are the saved form of all six kinds (TNR hybrid), the
// CH file with a planted firstUp defect, the R-tree file with a leaf wider
// than the node capacity and each history form TestHistoryRefused refuses,
// each also cut short. What a query does over unverified bytes is not in
// scope here: such a file is trusted (docs/FORMAT.md).
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

		if lg, err := graph.ReadGraph(bytes.NewReader(data)); err == nil && lg.NumVertices() < 0 {
			t.Fatalf("a graph of %d vertices loaded", lg.NumVertices())
		}
		if tr, err := rtree.ReadTree(bytes.NewReader(data)); err == nil && (tr.Len() < 0 || tr.Height() < 1) {
			t.Fatalf("a tree of %d entries and height %d loaded", tr.Len(), tr.Height())
		}
		for _, m := range methods {
			ix, err := core.LoadIndex(m, bytes.NewReader(data), g)
			checkIndex(m, ix, err, func() error {
				_, err := core.LoadIndex(m, bytes.NewReader(data), other)
				return err
			})
		}

		path := filepath.Join(t.TempDir(), "load")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		noVerify := binio.WithoutVerify()
		if lg, err := graph.LoadFile(path, true, noVerify); err == nil {
			if lg.NumVertices() < 0 {
				t.Fatalf("a graph of %d vertices loaded unverified", lg.NumVertices())
			}
			lg.Close()
		}
		if tr, err := rtree.LoadFile(path, true, noVerify); err == nil {
			if tr.Len() < 0 || tr.Height() < 1 {
				t.Fatalf("a tree of %d entries and height %d loaded unverified", tr.Len(), tr.Height())
			}
			tr.Close()
		}
		for _, m := range methods {
			ix, _, err := core.LoadIndexFile(m, path, g, true, noVerify)
			checkIndex(m, ix, err, func() error {
				_, _, err := core.LoadIndexFile(m, path, other, true, noVerify)
				return err
			})
			if err == nil {
				core.CloseIndex(ix)
			}
		}
	})
}
