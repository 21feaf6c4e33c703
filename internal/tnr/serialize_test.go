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
	c1, _ := ix.NumAccessNodes()
	c2, _ := ix2.NumAccessNodes()
	if c1 != c2 {
		t.Errorf("access nodes %d != %d after roundtrip", c2, c1)
	}
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
	_, fine := ix2.NumAccessNodes()
	if fine == 0 {
		t.Error("hybrid fine layer lost in roundtrip")
	}
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

// TestTNRRejectsUnknownEnumBytes re-saves a valid index's sections through
// binio.FlatWriter with the access-algorithm byte of the meta blob set to a
// value no constant declares. The checksums are valid, so only the enum
// check can refuse the file — and it must, as corrupt: such a byte would
// silently select a walk-less path query, and Save would write it back.
func TestTNRRejectsUnknownEnumBytes(t *testing.T) {
	g := testutil.SmallRoad(400, 821)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f, err := binio.OpenFlat(testutil.TempFile(t, "tnr.idx", data), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	metaOff, metaLen := binary.LittleEndian.Uint64(data[24:]), binary.LittleEndian.Uint64(data[32:])
	meta := data[metaOff : metaOff+metaLen]
	// The blob: magic, n and m (i64), grid size (i32), hybrid (u8), then
	// the access-algorithm byte.
	const accessAt = len("ROADNET-TNR\n") + 8 + 8 + 4 + 1
	resave := func(at int, v byte) []byte {
		mut := bytes.Clone(meta)
		mut[at] = v
		fw := binio.NewFlatWriter(tnr.Fourcc)
		fw.Meta().Magic(string(mut))
		d := f.Decode(tnr.Fourcc, "ROADNET-TNR\n")
		for i := 0; i < f.NumSections(); i++ {
			switch kind, _ := f.SectionInfo(i); kind {
			case binio.SectionU8:
				fw.U8Section(d.U8s(i))
			case binio.SectionI32:
				fw.I32Section(d.I32s(i))
			case binio.SectionI64:
				fw.I64Section(d.I64s(i))
			default:
				t.Fatalf("section %d is %s, which a TNR file does not hold", i, kind)
			}
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := fw.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	if _, err := load(t, resave(accessAt, byte(tnr.AccessFlawedBast)), g); err != nil {
		t.Fatalf("a re-saved file with a declared access algorithm must load: %v", err)
	}
	for _, v := range []byte{2, 255} {
		if _, err := load(t, resave(accessAt, v), g); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("access byte set to %d: err = %v, want binio.ErrCorrupt", v, err)
		}
	}
}
