package chaos

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/pcpd"
	"roadnet/internal/rtree"
	"roadnet/internal/silc"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// flipTrials is how many independent rng-chosen covered bytes each format
// must detect, per load path. The exhaustive every-byte sweep lives in
// internal/binio; this table proves the detection reaches every fourcc
// through its real production loader.
const flipTrials = 8

// TestEveryFormatDetectsCorruption is the flat-file damage table: for each
// of the six fourccs (GRPH, CH, TNR with its nested CH container, SILC,
// PCPD, RTRE), the pristine file loads through its production loader on both the
// heap and mmap paths, while a truncated copy and copies with a flipped
// checksum-covered byte fail with ErrCorrupt on both paths.
func TestEveryFormatDetectsCorruption(t *testing.T) {
	g := testutil.SmallRoad(200, 7)
	dir := t.TempDir()

	indexLoader := func(m core.Method) func(path string, mmap bool) error {
		return func(path string, mmap bool) error {
			idx, _, err := core.LoadIndexFile(m, path, g, mmap)
			if err == nil {
				err = core.CloseIndex(idx)
			}
			return err
		}
	}
	saveIndex := func(m core.Method) func(path string) error {
		return func(path string) error {
			idx, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 4}})
			if err != nil {
				return err
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return core.SaveIndex(idx, f)
		}
	}

	cases := []struct {
		name   string
		fourcc uint32
		save   func(path string) error
		load   func(path string, mmap bool) error
	}{
		{"GRPH", graph.GraphFourcc,
			func(path string) error {
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				defer f.Close()
				return g.Save(f)
			},
			func(path string, mmap bool) error {
				lg, err := graph.LoadFile(path, mmap)
				if err == nil {
					err = lg.Close()
				}
				return err
			}},
		{"CH", ch.Fourcc, saveIndex(core.MethodCH), indexLoader(core.MethodCH)},
		{"TNR", tnr.Fourcc, saveIndex(core.MethodTNR), indexLoader(core.MethodTNR)},
		{"SILC", silc.Fourcc, saveIndex(core.MethodSILC), indexLoader(core.MethodSILC)},
		{"PCPD", pcpd.Fourcc, saveIndex(core.MethodPCPD), indexLoader(core.MethodPCPD)},
		{"RTRE", rtree.Fourcc,
			func(path string) error {
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				defer f.Close()
				return core.NewSpatialLocator(g).Tree().Save(f)
			},
			func(path string, mmap bool) error {
				tr, err := rtree.LoadFile(path, mmap)
				if err == nil {
					err = tr.Close()
				}
				return err
			}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pristine := filepath.Join(dir, tc.name+".bin")
			if err := tc.save(pristine); err != nil {
				t.Fatalf("save: %v", err)
			}
			layout, err := ReadLayout(pristine)
			if err != nil {
				t.Fatalf("layout: %v", err)
			}
			if layout.Fourcc != tc.fourcc {
				t.Fatalf("fourcc = %08x, want %08x", layout.Fourcc, tc.fourcc)
			}
			if layout.Header.Len == 0 {
				t.Fatal("saved file carries no checksums")
			}

			for _, mmap := range []bool{false, true} {
				mode := map[bool]string{false: "heap", true: "mmap"}[mmap]
				if err := tc.load(pristine, mmap); err != nil {
					t.Fatalf("%s: pristine file rejected: %v", mode, err)
				}

				work := filepath.Join(dir, tc.name+".work")
				for _, cut := range []int64{layout.Size - 1, layout.Size / 2} {
					mustClone(t, work, pristine)
					if err := Truncate(work, cut); err != nil {
						t.Fatal(err)
					}
					if err := tc.load(work, mmap); !errors.Is(err, binio.ErrCorrupt) {
						t.Fatalf("%s: truncation to %d bytes: err = %v, want ErrCorrupt", mode, cut, err)
					}
				}

				rng := rand.New(rand.NewSource(0x5eed + int64(len(tc.name))))
				for trial := 0; trial < flipTrials; trial++ {
					mustClone(t, work, pristine)
					off, err := FlipCovered(work, rng)
					if err != nil {
						t.Fatal(err)
					}
					if err := tc.load(work, mmap); !errors.Is(err, binio.ErrCorrupt) {
						t.Fatalf("%s: flipped byte at offset %d went undetected: err = %v, want ErrCorrupt",
							mode, off, err)
					}
				}
			}
		})
	}
}

func mustClone(t *testing.T, dst, src string) {
	t.Helper()
	if err := Clone(dst, src); err != nil {
		t.Fatal(err)
	}
}
