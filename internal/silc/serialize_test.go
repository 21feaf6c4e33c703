package silc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
)

// load opens data as a SILC file read onto the heap, re-attached to g.
func load(t *testing.T, data []byte, g *graph.Graph) (*silc.Index, error) {
	t.Helper()
	return binio.Load(testutil.TempFile(t, "silc.idx", data), false, func(f *binio.FlatFile) (*silc.Index, error) {
		return silc.IndexFromFlat(f, g)
	})
}

func TestSILCSerializationRoundtrip(t *testing.T) {
	g := testutil.SmallRoad(900, 821)
	ix := build(t, g)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := load(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.NumIntervals() != ix.NumIntervals() {
		t.Errorf("intervals %d != %d after roundtrip", ix2.NumIntervals(), ix.NumIntervals())
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 151), ix2.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 60, 153), ix2.NewSearcher().OpenPath)
}

func TestSILCSerializationWithExceptions(t *testing.T) {
	// Colliding coordinates force exception tables; they must roundtrip.
	g := gen.RandomConnected(80, 120, 20, 823)
	ix := build(t, g)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := load(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.AllPairs(g), ix2.Distance)
}

func TestSILCSerializationRejectsWrongGraph(t *testing.T) {
	g := testutil.SmallRoad(400, 825)
	other := testutil.SmallRoad(900, 827)
	ix := build(t, g)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := load(t, buf.Bytes(), other); err == nil {
		t.Error("loading onto a different graph must fail")
	}
}

func TestSILCSerializationRejectsTruncation(t *testing.T) {
	g := testutil.SmallRoad(400, 829)
	ix := build(t, g)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := load(t, data[:len(data)/3], g); err == nil {
		t.Error("truncated file must fail")
	}
}

// TestSILCSerializationRejectsFlippedByte flips a byte in the colors
// section, which no structural check reads: only its checksum can tell.
func TestSILCSerializationRejectsFlippedByte(t *testing.T) {
	g := testutil.SmallRoad(400, 831)
	var buf bytes.Buffer
	if err := build(t, g).Save(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[binary.LittleEndian.Uint64(bad[40+24*2+8:])] ^= 1 // section 2's offset, from the section table
	if _, err := load(t, bad, g); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
}

func TestSILCVersionErrors(t *testing.T) {
	g := testutil.SmallRoad(400, 853)
	ix := build(t, g)

	var v2 bytes.Buffer
	if err := ix.Save(&v2); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), v2.Bytes()...)
	bad[12] = 9 // flat header version field (little-endian u32 at offset 12)
	_, err := load(t, bad, g)
	if !errors.Is(err, binio.ErrVersion) {
		t.Errorf("flat container with version 9: got %v, want binio.ErrVersion", err)
	}
}
