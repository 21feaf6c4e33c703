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

// TestGoldenDigests pins the layers of the 32x32 grid, of the hybrid and of
// the flawed Appendix B variant: access nodes, vertex distances and the pair
// table, dense and sparse. They are a function of the graph alone, so the
// schedule of the parallel stages and the hierarchy the pair table is
// computed over must not show; a change of the access-node rule or of the
// layout regenerates the tables in the commit that argues why. The flawed
// row, the 32x32 grid of BuildFlawed, also holds its vertex distances
// unpruned: Appendix B counts that variant's wrong answers on whole access
// sets.
func TestGoldenDigests(t *testing.T) {
	options := func(opts tnr.Options) func(*graph.Graph, *ch.Hierarchy) (*tnr.Index, error) {
		return func(g *graph.Graph, h *ch.Hierarchy) (*tnr.Index, error) { return tnr.Build(g, h, opts) }
	}
	flawed := func(g *graph.Graph, h *ch.Hierarchy) (*tnr.Index, error) { return tnr.BuildFlawedIndex(g, h, 32) }
	for _, variant := range []struct {
		name  string
		build func(*graph.Graph, *ch.Hierarchy) (*tnr.Index, error)
		want  map[string]uint64
	}{
		{"32x32", options(tnr.Options{GridSize: 32}), map[string]uint64{
			"DE":      0xae9885322183e8ad,
			"NH":      0x2f3de1c6b9c8c576,
			"messy1":  0x633190b0bfd024db,
			"messy2":  0x2826ff6c5aec583f,
			"messy3":  0xb1e3b6aa6aa6b477,
			"messy4":  0xc6f20e19e033262b,
			"messy5":  0x24c6b6dbc3066763,
			"messy6":  0x2f68cb862d6990a1,
			"messy7":  0xab81d118ad46380e,
			"messy8":  0x4f4c5482ea056639,
			"messy9":  0x138cef85d829dc1f,
			"messy10": 0xa7ca87c13a3720b3,
			"messy11": 0x38f9de15f691d1ab,
			"messy12": 0xfcc43b97464add48,
		}},
		{"hybrid", options(tnr.Options{GridSize: 32, Hybrid: true}), map[string]uint64{
			"DE":      0x0c1c874fc7e256d8,
			"NH":      0xcfc43174d0e36dc4,
			"messy1":  0x96a5fd357b7a89d1,
			"messy2":  0x2a2642f37f587947,
			"messy3":  0xf00b2c40d5a61393,
			"messy4":  0x04feddfea0aed5c7,
			"messy5":  0xf3ef4865edcbbdd0,
			"messy6":  0x28749157cf053b64,
			"messy7":  0xcb498f461f2d7efd,
			"messy8":  0x14d9880516b66481,
			"messy9":  0x3ad9d571581e2adc,
			"messy10": 0xfe2c08132985848a,
			"messy11": 0x53b9193f089bbed3,
			"messy12": 0x447c6edea1798c2b,
		}},
		{"flawed", flawed, map[string]uint64{
			"DE":      0x348ae3b34d01d3d3,
			"NH":      0x58152da61978591b,
			"messy1":  0xf09e4d74a22413fe,
			"messy2":  0xebf7f841c2966752,
			"messy3":  0x779ee123bede9e4b,
			"messy4":  0x79da6e1fb2d8d672,
			"messy5":  0xb2df877a74d836bf,
			"messy6":  0x6e90e0e6f8bf58e3,
			"messy7":  0xfcd1bd4b65d5ad01,
			"messy8":  0xe285e8001e0b278c,
			"messy9":  0xba3313318acefbd8,
			"messy10": 0x7c488e3c5f02a994,
			"messy11": 0x267fb361dd076c45,
			"messy12": 0x3e7b47c723fd53bb,
		}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			testutil.GoldenDigests(t, variant.want, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
				ix, err := variant.build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})))
				if err != nil {
					t.Fatal(err)
				}
				return layerDigest(t, ix)
			})
		})
	}
}
