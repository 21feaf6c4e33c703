package silc

import (
	"bytes"
	"hash/fnv"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// TestGoldenDigests pins the index files: FNV-1a of what Save writes once
// the clock reading is zeroed. A change of the first-hop rule, of the
// quadtree compression or of the file layout shows here and regenerates the
// table in the commit that argues why.
func TestGoldenDigests(t *testing.T) {
	testutil.GoldenDigests(t, map[string]uint64{
		"DE":      0x4cb85f54300bd9b6,
		"NH":      0xcd132793621415fa,
		"messy1":  0xea6a0f4f334bda64,
		"messy2":  0x273c453705281624,
		"messy3":  0xc4ebebc2345f0724,
		"messy4":  0xa28978a6dd9c7dec,
		"messy5":  0x4497aed17cf7521d,
		"messy6":  0x141f2f02b8cbc872,
		"messy7":  0x3b1eee64671a0b85,
		"messy8":  0x69eebc01eaefc647,
		"messy9":  0x50216e77a425180e,
		"messy10": 0x3158e1ee6a35b0f3,
		"messy11": 0x8515f883e568889f,
		"messy12": 0x57754ee25e568957,
	}, func(t *testing.T, g *graph.Graph, workers, witnessLimit int) uint64 {
		ix, err := Build(g, Options{Workers: workers, Hierarchy: testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit}))})
		if err != nil {
			t.Fatal(err)
		}
		ix.buildTime = 0
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return h.Sum64()
	})
}
