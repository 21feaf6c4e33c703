package silc

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// fileDigest is FNV-1a over the meta blob and every section of what Save
// writes. The container header is left out: its version field and checksum
// change with binio.FlatVersion, which says nothing about the index.
func fileDigest(t *testing.T, ix *Index) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f, err := binio.OpenFlat(testutil.TempFile(t, "silc.idx", data), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := fnv.New64a()
	metaOff, metaLen := binary.LittleEndian.Uint64(data[24:]), binary.LittleEndian.Uint64(data[32:])
	h.Write(data[metaOff : metaOff+metaLen])
	for i := 0; i < f.NumSections(); i++ {
		off, size := f.SectionRange(i)
		h.Write(data[off : off+size])
	}
	return h.Sum64()
}

// TestGoldenDigests pins the index files: fileDigest of what Save writes. A
// change of the first-hop rule, of the quadtree compression or of the file
// layout shows here and regenerates the table in the commit that argues
// why.
func TestGoldenDigests(t *testing.T) {
	testutil.GoldenDigests(t, map[string]uint64{
		"DE":      0x944e129d715dc6d7,
		"NH":      0x08949b75e62d6835,
		"messy1":  0xd5ae50cee4092abd,
		"messy2":  0xee094d3d4e9c6d6f,
		"messy3":  0xef0b7742b319b342,
		"messy4":  0x0015c2e53ef92fb8,
		"messy5":  0x4050eed807677b95,
		"messy6":  0x8c57f49eff1b946d,
		"messy7":  0x7de54911ca2cb6c8,
		"messy8":  0x53d20e5c1940b389,
		"messy9":  0x14d4b7d00ce03319,
		"messy10": 0x8623fa350c212872,
		"messy11": 0x7077926342f0f804,
		"messy12": 0x5c765e3bf0ef2c03,
	}, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
		ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})))
		if err != nil {
			t.Fatal(err)
		}
		return fileDigest(t, ix)
	})
}
