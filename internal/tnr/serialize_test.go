package tnr_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// load opens data as a TNR file read onto the heap, re-attached to g.
func load(t *testing.T, data []byte, g *graph.Graph) (*tnr.Index, error) {
	t.Helper()
	return binio.Load(testutil.TempFile(t, "tnr.idx", data), false, func(f *binio.FlatFile) (*tnr.Index, error) {
		return tnr.IndexFromFlat(f, g)
	})
}

// checkResaves requires a reloaded index to save the bytes it was loaded
// from, so no layer, table or access node was lost on the way.
func checkResaves(t *testing.T, ix *tnr.Index, want []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("reloaded index saves %d bytes that differ from the %d it was loaded from", buf.Len(), len(want))
	}
}

func TestTNRSerializationRoundtrip(t *testing.T) {
	g := testutil.SmallRoad(900, 811)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := load(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	checkResaves(t, ix2, buf.Bytes())
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 141), ix2.NewSearcher().Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 50, 143), ix2.NewSearcher().OpenPath)
}

func TestTNRSerializationHybrid(t *testing.T) {
	g := testutil.SmallRoad(900, 813)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8, Hybrid: true})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := load(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	checkResaves(t, ix2, buf.Bytes())
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 150, 147), ix2.NewSearcher().Distance)
}

func TestTNRSerializationRejectsWrongGraph(t *testing.T) {
	g := testutil.SmallRoad(400, 815)
	other := testutil.SmallRoad(900, 817)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := load(t, buf.Bytes(), other); err == nil {
		t.Error("loading onto a different graph must fail")
	}
}

func TestTNRSerializationRejectsTruncation(t *testing.T) {
	g := testutil.SmallRoad(400, 819)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{10, len(data) / 4, len(data) / 2, len(data) - 3} {
		if _, err := load(t, data[:cut], g); err == nil {
			t.Errorf("file truncated at %d must fail", cut)
		}
	}
}

// TestTNRSerializationRejectsFlippedByte flips a byte in the coarse
// layer's vertex-to-access-node distances, which no structural check
// reads: only its checksum can tell.
func TestTNRSerializationRejectsFlippedByte(t *testing.T) {
	g := testutil.SmallRoad(400, 823)
	var buf bytes.Buffer
	if err := buildTNR(t, g, tnr.Options{GridSize: 8}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[binary.LittleEndian.Uint64(bad[40+24*6+8:])] ^= 1 // section 6's offset, from the section table
	if _, err := load(t, bad, g); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
}

func TestTNRVersionErrors(t *testing.T) {
	g := testutil.SmallRoad(400, 843)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})

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
