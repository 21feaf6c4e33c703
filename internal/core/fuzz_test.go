package core_test

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/rtree"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// FuzzLoad feeds arbitrary bytes to the one load path — binio's stream
// entry, then each of the five constructors over the parsed container — and
// holds the property every loader promises about bytes from outside the
// program: a usable object or an error, never a panic. For the three index
// kinds it also holds the graph check: bytes that load on one graph are
// refused on a graph of another size, as built for a different graph. The
// seeds are the saved form of all five kinds (TNR hybrid) and the committed
// SILC file of an older build that still filled the reserved sections, each
// also with the checksum flag cleared — which is what lets a mutation past
// the CRC sweep and onto the structural checks — and cut short. What a
// query does over unverified bytes is not in scope here.
func FuzzLoad(f *testing.F) {
	g := testutil.SmallRoad(24, 931)
	other := testutil.SmallRoad(40, 933)
	methods := []core.Method{core.MethodCH, core.MethodTNR, core.MethodSILC}
	saves := []func(io.Writer) error{g.Save, core.NewSpatialLocator(g).Tree().Save}
	for _, m := range methods {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 4, Hybrid: true}})
		if err != nil {
			f.Fatal(err)
		}
		saves = append(saves, func(w io.Writer) error { return core.SaveIndex(ix, w) })
	}
	nearestEra, err := os.ReadFile("../silc/testdata/figure1_nearest.idx")
	if err != nil {
		f.Fatal(err)
	}
	files := [][]byte{nearestEra}
	for _, save := range saves {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			f.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	for _, file := range files {
		bare := bytes.Clone(file)
		bare[20] &^= 1 // the checksum flag: bit 0 of the u32 at offset 20
		for _, data := range [][]byte{file, bare} {
			for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, 64, 39} {
				f.Add(data[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if lg, err := graph.ReadGraph(bytes.NewReader(data)); err == nil && lg.NumVertices() < 0 {
			t.Fatalf("a graph of %d vertices loaded", lg.NumVertices())
		}
		if tr, err := rtree.ReadTree(bytes.NewReader(data)); err == nil && (tr.Len() < 0 || tr.Height() < 1) {
			t.Fatalf("a tree of %d entries and height %d loaded", tr.Len(), tr.Height())
		}
		for _, m := range methods {
			ix, err := core.LoadIndex(m, bytes.NewReader(data), g)
			if err != nil {
				continue
			}
			if st := ix.Stats(); st.Method != m || st.IndexBytes < 0 {
				t.Fatalf("%s bytes loaded as %+v", m, st)
			}
			if _, err := core.LoadIndex(m, bytes.NewReader(data), other); err == nil || !strings.Contains(err.Error(), "built for a") {
				t.Fatalf("%s bytes that load on their own graph: on another graph err = %v, want a size mismatch", m, err)
			}
		}
	})
}
