package tnr_test

import (
	"bytes"
	"hash/fnv"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// layerDigest is FNV-1a over the layer sections of what Save writes: every
// section but the first, the embedded hierarchy, which depends on the
// witness limit while the layers do not.
func layerDigest(t *testing.T, ix *tnr.Index) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := binio.OpenFlat(testutil.TempFile(t, "tnr.idx", buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := fnv.New64a()
	for i := 1; i < f.NumSections(); i++ {
		off, size := f.SectionRange(i)
		h.Write(buf.Bytes()[off : off+size])
	}
	return h.Sum64()
}

// TestGoldenDigests pins the layers of the 32x32 grid and of the hybrid:
// access nodes, vertex distances and the pair table, dense and sparse. They
// are a function of the graph alone, so the schedule of the parallel stages
// and the hierarchy the pair table is computed over must not show; a change
// of the access-node rule or of the layout regenerates the tables in the
// commit that argues why.
func TestGoldenDigests(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts tnr.Options
		want map[string]uint64
	}{
		{"32x32", tnr.Options{GridSize: 32}, map[string]uint64{
			"DE":      0xb2f6bad5187522fc,
			"NH":      0x709a0fdb5ae1046c,
			"messy1":  0xe0bd56ef85c4f1d1,
			"messy2":  0xb7a782dc82f2a9e4,
			"messy3":  0x6a2e5486d2fc6654,
			"messy4":  0x6d03df3d4c38c496,
			"messy5":  0x6dd257534a50cdd2,
			"messy6":  0x8678c8707eac4fe5,
			"messy7":  0xc928838d5b80ed54,
			"messy8":  0xe4fa87c953858036,
			"messy9":  0x9bdf1e9f86c626cc,
			"messy10": 0xb2e8e2eed54b515d,
			"messy11": 0x811d257b84aee48a,
			"messy12": 0x20fa2214e90afd9a,
		}},
		{"hybrid", tnr.Options{GridSize: 32, Hybrid: true}, map[string]uint64{
			"DE":      0x206f52d071284c5d,
			"NH":      0xbfc7028ade93049e,
			"messy1":  0x240d7b31a12db3c8,
			"messy2":  0x2a1c3082ad5d2495,
			"messy3":  0x56ea49b11a3bfb25,
			"messy4":  0xb403bbb78911cb8f,
			"messy5":  0xf1535f57b9fe4821,
			"messy6":  0x18434207bbbe7762,
			"messy7":  0x5d9f76a3824bb982,
			"messy8":  0x3ab1d1e59616a8d1,
			"messy9":  0x2ef9fac53aa165eb,
			"messy10": 0x85feb32c992331c0,
			"messy11": 0xf36ab2b75dceaa9d,
			"messy12": 0x51a358b4421e4a6d,
		}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			testutil.GoldenDigests(t, variant.want, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
				ix, err := tnr.Build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})), variant.opts)
				if err != nil {
					t.Fatal(err)
				}
				return layerDigest(t, ix)
			})
		})
	}
}
