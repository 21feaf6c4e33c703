package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadnet"
	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// savedKind is one persisted kind: the bytes its Save writes for the graph
// of savedKinds, and its file loader through the roadnet facade.
type savedKind struct {
	name string
	data []byte
	load func(path string, opts ...roadnet.OpenOption) error
}

// savedKinds saves all five kinds (TNR hybrid, so its file has both
// layers) for one small road network, which it returns too.
func savedKinds(t testing.TB) (*graph.Graph, []savedKind) {
	g := testutil.SmallRoad(24, 931)
	save := func(s func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := s(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	kinds := []savedKind{
		{"graph", save(g.Save), func(path string, opts ...roadnet.OpenOption) error {
			lg, err := roadnet.LoadGraphFile(path, true, opts...)
			if err == nil {
				lg.Close()
			}
			return err
		}},
		{"rtree", save(core.NewSpatialLocator(g).Tree().Save), func(path string, opts ...roadnet.OpenOption) error {
			tr, err := roadnet.LoadRTreeFile(path, true, opts...)
			if err == nil {
				tr.Close()
			}
			return err
		}},
	}
	for _, m := range []core.Method{core.MethodCH, core.MethodTNR, core.MethodSILC} {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 4, Hybrid: true}})
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, savedKind{string(m), save(func(w io.Writer) error { return core.SaveIndex(ix, w) }),
			func(path string, opts ...roadnet.OpenOption) error {
				lix, _, err := roadnet.LoadIndexFile(m, path, g, true, opts...)
				if err == nil {
					roadnet.CloseIndex(lix)
				}
				return err
			}})
	}
	return g, kinds
}

// section is one section of a container being laid out again.
type section struct {
	kind binio.SectionKind
	data []byte
}

// relayout writes the container in data again through binio's writer, with
// edit applied to its meta blob and section list. The result carries valid
// checksums: it differs from what Save wrote only in its layout.
func relayout(t testing.TB, data []byte, edit func(meta []byte, secs []section) ([]byte, []section)) []byte {
	f, err := binio.ParseFlat(data, false)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	metaOff, metaLen := le.Uint64(data[24:]), le.Uint64(data[32:])
	meta := bytes.Clone(data[metaOff : metaOff+metaLen])
	var secs []section
	for i := 0; i < f.NumSections(); i++ {
		kind, _ := f.SectionInfo(i)
		off, size := f.SectionRange(i)
		secs = append(secs, section{kind, data[off : off+size]})
	}
	meta, secs = edit(meta, secs)
	fw := binio.NewFlatWriter(f.Fourcc())
	fw.Meta().Magic(string(meta))
	for _, s := range secs {
		switch s.kind {
		case binio.SectionU8:
			fw.U8Section(s.data)
		case binio.SectionI32:
			v := make([]int32, len(s.data)/4)
			for i := range v {
				v[i] = int32(le.Uint32(s.data[4*i:]))
			}
			fw.I32Section(v)
		case binio.SectionU32:
			v := make([]uint32, len(s.data)/4)
			for i := range v {
				v[i] = le.Uint32(s.data[4*i:])
			}
			fw.U32Section(v)
		case binio.SectionI64:
			v := make([]int64, len(s.data)/8)
			for i := range v {
				v[i] = int64(le.Uint64(s.data[8*i:]))
			}
			fw.I64Section(v)
		}
	}
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// historyForm is a layout that some earlier build wrote and no Save writes
// now, with the error every loader must refuse it with.
type historyForm struct {
	name string
	kind int // index into savedKinds
	data []byte
	want error
}

// historyForms derives each refused history form from the current saves.
func historyForms(t testing.TB, kinds []savedKind) []historyForm {
	var forms []historyForm
	for k, sk := range kinds {
		v2 := bytes.Clone(sk.data)
		v2[12] = 2 // the container version, a u32 at offset 12
		bare := bytes.Clone(sk.data)
		bare[20] &^= 1 // the checksum flag, bit 0 of the u32 at offset 20
		forms = append(forms,
			historyForm{sk.name + "/version-2", k, v2, roadnet.ErrVersion},
			historyForm{sk.name + "/checksum-flag-cleared", k, bare, roadnet.ErrCorrupt},
			historyForm{sk.name + "/trailing-meta-byte", k, relayout(t, sk.data, func(meta []byte, secs []section) ([]byte, []section) {
				return append(meta, 0), secs
			}), roadnet.ErrCorrupt})
		switch sk.name {
		case string(core.MethodCH):
			// Before the unpack table was dropped, Save wrote three more
			// i32 sections after the five of today.
			forms = append(forms, historyForm{sk.name + "/unpack-sections", k, relayout(t, sk.data, func(meta []byte, secs []section) ([]byte, []section) {
				return meta, append(secs, secs[2], secs[2], secs[2])
			}), roadnet.ErrCorrupt})
		case string(core.MethodSILC):
			// Before the k-NN path was removed, Save wrote a trailing meta
			// byte and two i32 sections, at 3 and 5, that later readers
			// skipped.
			forms = append(forms, historyForm{sk.name + "/reserved-byte-and-sections", k, relayout(t, sk.data, func(meta []byte, secs []section) ([]byte, []section) {
				empty := section{binio.SectionI32, nil}
				out := append(append(append([]section{}, secs[:3]...), empty, secs[3], empty), secs[4:]...)
				return append(meta, 0), out
			}), roadnet.ErrCorrupt})
		}
	}
	return forms
}

// TestHistoryRefused holds the format's one rule, a reader accepts exactly
// the layout it writes: every layout an earlier build wrote is refused with
// its typed error through the facade's loaders, verified or not, while what
// Save writes today loads both ways.
func TestHistoryRefused(t *testing.T) {
	_, kinds := savedKinds(t)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, strings.ReplaceAll(name, "/", "-"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, sk := range kinds {
		path := write(sk.name, sk.data)
		for _, opts := range [][]roadnet.OpenOption{nil, {roadnet.WithoutVerify()}} {
			if err := sk.load(path, opts...); err != nil {
				t.Errorf("%s as Save wrote it (%d options): %v", sk.name, len(opts), err)
			}
		}
	}
	for _, h := range historyForms(t, kinds) {
		t.Run(h.name, func(t *testing.T) {
			path := write(h.name, h.data)
			for _, opts := range [][]roadnet.OpenOption{nil, {roadnet.WithoutVerify()}} {
				if err := kinds[h.kind].load(path, opts...); !errors.Is(err, h.want) {
					t.Errorf("%d options: err = %v, want %v", len(opts), err, h.want)
				}
			}
		})
	}
}

// plantedFirstUp returns the saved CH file with firstUp[n], the last i32 of
// section 1, raised by one: a structural defect under valid-looking bytes
// that only the section's checksum and the constructor's check can see.
func plantedFirstUp(t testing.TB, chFile []byte) []byte {
	f, err := binio.ParseFlat(chFile, false)
	if err != nil {
		t.Fatal(err)
	}
	off, size := f.SectionRange(1)
	out := bytes.Clone(chFile)
	last := out[off+size-4:]
	binary.LittleEndian.PutUint32(last, binary.LittleEndian.Uint32(last)+1)
	return out
}

// TestUnverifiedLoadReachesStructuralChecks: a structural defect is refused
// by the checksum sweep when the load verifies, and by the CH constructor's
// own check when it does not — the path -verify=false takes.
func TestUnverifiedLoadReachesStructuralChecks(t *testing.T) {
	var ch savedKind
	_, kinds := savedKinds(t)
	for _, sk := range kinds {
		if sk.name == string(core.MethodCH) {
			ch = sk
		}
	}
	path := filepath.Join(t.TempDir(), "ch.idx")
	if err := os.WriteFile(path, plantedFirstUp(t, ch.data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts []roadnet.OpenOption
		says string
	}{
		{nil, "checksum mismatch"},
		{[]roadnet.OpenOption{roadnet.WithoutVerify()}, "does not cover the arc array"},
	} {
		if err := ch.load(path, tc.opts...); !errors.Is(err, roadnet.ErrCorrupt) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%d options: err = %v, want ErrCorrupt saying %q", len(tc.opts), err, tc.says)
		}
	}
}
