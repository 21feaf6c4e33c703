package arcflags

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// TestGoldenDigests pins the flag words (FNV-1a, little-endian). Flags mark
// every tight arc, so they involve no tie-break: the table is the one a
// plain Dijkstra per boundary vertex produces.
func TestGoldenDigests(t *testing.T) {
	testutil.GoldenDigests(t, map[string]uint64{
		"DE":      0x7427d33ccea4ee94,
		"NH":      0xe8c99880df678276,
		"messy1":  0x2edc6b43211ccd81,
		"messy2":  0xd09e284d2cc8d31d,
		"messy3":  0xb4536c43af7bc27e,
		"messy4":  0x05f9dcb3acdd296f,
		"messy5":  0xeb35f7f72cb810b3,
		"messy6":  0xfba8f68e04b7aee6,
		"messy7":  0xa4aad7929d8928d4,
		"messy8":  0xa0bd2e8954fbe7aa,
		"messy9":  0xe306696eb7f74de2,
		"messy10": 0xd2cbf7703e3a7c93,
		"messy11": 0xc43f0ede3287454f,
		"messy12": 0x4a06b43abfa006b8,
	}, func(t *testing.T, g *graph.Graph, witnessLimit int) uint64 {
		ix := Build(g, testutil.Must(ch.Build(g, ch.Options{WitnessSettleLimit: witnessLimit})))
		h := fnv.New64a()
		for _, w := range ix.flags {
			h.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
		return h.Sum64()
	})
}
