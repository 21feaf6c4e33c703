package core_test

import (
	"errors"
	"os"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/testutil"
)

// TestLoadIndexFileVerified checks the default-verify contract: loads
// report Verified, WithoutVerify loads do not, and a flipped byte in the
// index fails the default load on both the heap and mmap paths.
func TestLoadIndexFileVerified(t *testing.T) {
	g := testutil.SmallRoad(300, 919)
	built, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := saveToFile(t, built, "ch.idx")

	for _, preferMmap := range []bool{false, true} {
		ix, info, err := core.LoadIndexFile(core.MethodCH, path, g, preferMmap)
		if err != nil {
			t.Fatalf("preferMmap=%v: %v", preferMmap, err)
		}
		if !info.Verified {
			t.Errorf("preferMmap=%v: default load not Verified", preferMmap)
		}
		core.CloseIndex(ix)

		ix, info, err = core.LoadIndexFile(core.MethodCH, path, g, preferMmap, binio.WithoutVerify())
		if err != nil {
			t.Fatalf("preferMmap=%v WithoutVerify: %v", preferMmap, err)
		}
		if info.Verified {
			t.Errorf("preferMmap=%v: WithoutVerify load claims Verified", preferMmap)
		}
		core.CloseIndex(ix)
	}

	// Flip the last payload byte (the tail of the final section): the
	// default load must refuse it, WithoutVerify must still open it (the
	// structural checks cannot see a payload flip).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x20
	path = testutil.TempFile(t, "ch.idx", data)
	for _, preferMmap := range []bool{false, true} {
		if _, _, err := core.LoadIndexFile(core.MethodCH, path, g, preferMmap); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("preferMmap=%v: corrupt load err = %v, want ErrCorrupt", preferMmap, err)
		}
		ix, info, err := core.LoadIndexFile(core.MethodCH, path, g, preferMmap, binio.WithoutVerify())
		if err != nil {
			t.Fatalf("preferMmap=%v: WithoutVerify corrupt load: %v", preferMmap, err)
		}
		if info.Verified {
			t.Errorf("preferMmap=%v: corrupt WithoutVerify load claims Verified", preferMmap)
		}
		core.CloseIndex(ix)
	}
}
