package ch_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// load opens data as a hierarchy file read onto the heap, re-attached to g.
func load(t *testing.T, data []byte, g *graph.Graph) (*ch.Hierarchy, error) {
	t.Helper()
	return binio.Load(testutil.TempFile(t, "ch.idx", data), false, func(f *binio.FlatFile) (*ch.Hierarchy, error) {
		return ch.HierarchyFromFlat(f, g)
	})
}

func TestCHSerializationRoundtrip(t *testing.T) {
	g := testutil.SmallRoad(900, 801)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := load(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumShortcuts() != h.NumShortcuts() {
		t.Errorf("shortcuts %d != %d", h2.NumShortcuts(), h.NumShortcuts())
	}
	s := h2.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 131), s.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 60, 133), s.OpenPath)
}

func TestCHSerializationRejectsWrongGraph(t *testing.T) {
	g := testutil.SmallRoad(400, 803)
	other := testutil.SmallRoad(900, 805)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := load(t, buf.Bytes(), other); err == nil {
		t.Error("loading onto a different graph must fail")
	}
}

func TestCHSerializationRejectsCorruption(t *testing.T) {
	g := testutil.SmallRoad(400, 807)
	h := testutil.Must(ch.Build(g, ch.Options{}))
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncation.
	if _, err := load(t, data[:len(data)/2], g); err == nil {
		t.Error("truncated file must fail")
	}
	// Bad magic.
	bad := append([]byte("XX"), data[2:]...)
	if _, err := load(t, bad, g); err == nil {
		t.Error("bad magic must fail")
	}
	// Flipped version byte.
	bad = append([]byte(nil), data...)
	bad[len("ROADNET-CH\n")] = 99
	if _, err := load(t, bad, g); err == nil {
		t.Error("unknown version must fail")
	}
	// A flipped byte in the upWeight section, which no structural check
	// reads: only its checksum can tell.
	bad = append([]byte(nil), data...)
	bad[binary.LittleEndian.Uint64(data[40+24*3+8:])] ^= 1 // section 3's offset, from the section table
	if _, err := load(t, bad, g); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
}

func TestCHVersionErrors(t *testing.T) {
	g := testutil.SmallRoad(400, 833)
	h := testutil.Must(ch.Build(g, ch.Options{}))

	// Flat container with a future version must surface binio.ErrVersion.
	var v2 bytes.Buffer
	if err := h.Save(&v2); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), v2.Bytes()...)
	bad[12] = 9 // flat header version field (little-endian u32 at offset 12)
	_, err := load(t, bad, g)
	if !errors.Is(err, binio.ErrVersion) {
		t.Errorf("flat container with version 9: got %v, want binio.ErrVersion", err)
	}
}
