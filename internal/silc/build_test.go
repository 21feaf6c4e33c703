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
		"DE":      0xf97a08a912a31659,
		"NH":      0xd18c6e5db4f91136,
		"messy1":  0x60f2cb25a46d5573,
		"messy2":  0x46cfe20285f105b4,
		"messy3":  0x93e991d76175e764,
		"messy4":  0x0d5ecd898d6e8ca0,
		"messy5":  0xd63b3edb87b3ce23,
		"messy6":  0xe7926e8a223454d9,
		"messy7":  0xadd92866af91060f,
		"messy8":  0xe12ea96213daf8ab,
		"messy9":  0xac516fc64dc030bd,
		"messy10": 0x368c7c7915e9583e,
		"messy11": 0x1ca1c6ca1b78f8c0,
		"messy12": 0x82d1fabf58443bae,
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
