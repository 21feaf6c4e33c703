package silc

import (
	"bytes"
	"hash/fnv"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// TestGoldenDigests pins the index files: FNV-1a of what Save writes. A
// change of the first-hop rule, of the quadtree compression or of the file
// layout shows here and regenerates the table in the commit that argues
// why.
func TestGoldenDigests(t *testing.T) {
	testutil.GoldenDigests(t, map[string]uint64{
		"DE":      0x71f5eabffa5e046b,
		"NH":      0xad1bca8b4a240f80,
		"messy1":  0x07d21cc3a8458229,
		"messy2":  0x38db13e19d5e907a,
		"messy3":  0x292cfaf42fcefdf3,
		"messy4":  0xf78dfc12197e7b15,
		"messy5":  0x0bb0f7e21ce51a8c,
		"messy6":  0x16c7b3150c34c4b4,
		"messy7":  0x4aa37c81f5a298b9,
		"messy8":  0xadc40c24bf65afc2,
		"messy9":  0x93f321a78f9145dc,
		"messy10": 0xdcdb074281a80213,
		"messy11": 0x513ca0caec211c36,
		"messy12": 0x9161ec4a12c02a14,
	}, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
		ix, err := Build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return h.Sum64()
	})
}
