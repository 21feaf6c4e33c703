package pcpd_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/testutil"
)

// load opens data as a PCPD file read onto the heap, re-attached to g.
func load(t *testing.T, data []byte, g *graph.Graph) (*pcpd.Index, error) {
	t.Helper()
	return binio.Load(testutil.TempFile(t, "pcpd.idx", data), false, func(f *binio.FlatFile) (*pcpd.Index, error) {
		return pcpd.IndexFromFlat(f, g)
	})
}

func save(t *testing.T, ix *pcpd.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPCPDSerializationRoundtrip(t *testing.T) {
	// MessyGraph stacks vertices on shared coordinates, so the file carries
	// collision tables as well as the tree.
	for _, g := range []*graph.Graph{testutil.SmallRoad(400, 331), testutil.MessyGraph(6)} {
		ix := build(t, g)
		ix2, err := load(t, save(t, ix), g)
		if err != nil {
			t.Fatal(err)
		}
		if ix2.SizeBytes() != ix.SizeBytes() || ix2.NumPairs() != ix.NumPairs() || ix2.NumNodes() != ix.NumNodes() {
			t.Errorf("loaded %d bytes, %d pairs, %d nodes; built %d, %d, %d",
				ix2.SizeBytes(), ix2.NumPairs(), ix2.NumNodes(), ix.SizeBytes(), ix.NumPairs(), ix.NumNodes())
		}
		pairs := testutil.SamplePairs(g, 300, 335)
		testutil.CheckDistancesAgainstDijkstra(t, g, pairs, ix2.Distance)
		testutil.CheckPathsAgainstDijkstra(t, g, pairs, ix2.NewSearcher().OpenPath)
		for _, p := range pairs {
			got, gotD := testutil.Path(ix2.NewSearcher().OpenPath, p[0], p[1])
			want, wantD := testutil.Path(ix.NewSearcher().OpenPath, p[0], p[1])
			if gotD != wantD || !reflect.DeepEqual(got, want) {
				t.Fatalf("path(%d, %d): loaded %v (%d), built %v (%d)", p[0], p[1], got, gotD, want, wantD)
			}
		}
	}
}

func TestPCPDSerializationRejectsWrongGraph(t *testing.T) {
	g := testutil.SmallRoad(400, 337)
	other := testutil.SmallRoad(900, 339)
	if _, err := load(t, save(t, build(t, g)), other); err == nil {
		t.Error("loading onto a different graph must fail")
	}
}

func TestPCPDSerializationRejectsCorruption(t *testing.T) {
	g := testutil.SmallRoad(400, 341)
	data := save(t, build(t, g))

	// Truncation.
	if _, err := load(t, data[:len(data)/2], g); err == nil {
		t.Error("truncated file must fail")
	}
	// Bad magic.
	bad := append([]byte("XX"), data[2:]...)
	if _, err := load(t, bad, g); err == nil {
		t.Error("bad magic must fail")
	}
	// A flipped byte at the end of the file, inside a section.
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 1
	if _, err := load(t, bad, g); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
	// A future container version.
	bad = append([]byte(nil), data...)
	bad[12] = 9 // flat header version field (little-endian u32 at offset 12)
	if _, err := load(t, bad, g); !errors.Is(err, binio.ErrVersion) {
		t.Errorf("flat container with version 9: got %v, want binio.ErrVersion", err)
	}
}
