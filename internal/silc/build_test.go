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
		"DE":      0xf6e6b8d9c6ddae35,
		"NH":      0xc1a5cd49c7ec1d62,
		"messy1":  0xf758325be6a28257,
		"messy2":  0xbebc4d01ae4c5838,
		"messy3":  0xc9b217467038a450,
		"messy4":  0x402e56674d3f2368,
		"messy5":  0xb1a5ddc3b73dca6b,
		"messy6":  0x7a598c3f05cb07f5,
		"messy7":  0xb4794560ec1bf847,
		"messy8":  0x90e32ef2dae5d373,
		"messy9":  0x542a308abbb599c5,
		"messy10": 0xcea52750c7c8b9fa,
		"messy11": 0x251f6ceb5c55bb64,
		"messy12": 0x632345ebaf59531a,
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
