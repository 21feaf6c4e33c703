package binio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempFile writes data to a file called name in a fresh temporary
// directory and returns its path. It is testutil.TempFile for this
// package's own tests, which cannot import testutil: testutil depends on
// binio through graph.
func tempFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dirNames lists what dir holds, to catch temp-file litter.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestWriteFileAllOrNothing is the torn-cache test: a save that writes some
// bytes and then fails — a full disk, a killed build — must leave nothing
// under the final name when nothing was there, the previous file byte for
// byte when one was, and no temporary file either way. (The fault is the
// failing callback, not file permissions: tests run as root.)
func TestWriteFileAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ch.idx")
	boom := errors.New("injected: no space left on device")
	torn := func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("half a cache "), 4000)); err != nil {
			return err
		}
		return boom
	}

	if err := WriteFile(path, torn); !errors.Is(err, boom) {
		t.Fatalf("failed save: err = %v, want the save's error", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("a failed first save left %v behind", names)
	}

	whole := func(content string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}
	}
	if err := WriteFile(path, whole("first complete cache")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, torn); !errors.Is(err, boom) {
		t.Fatalf("failed overwrite: err = %v, want the save's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first complete cache" {
		t.Fatalf("a failed overwrite left %q, %v under the final name", got, err)
	}

	if err := WriteFile(path, whole("second complete cache")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second complete cache" {
		t.Fatalf("overwrite left %q, %v", got, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("cache file mode = %v, %v, want 0644: other processes map it", st.Mode(), err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "ch.idx" {
		t.Fatalf("directory holds %v, want only ch.idx", names)
	}

	if err := WriteFile(filepath.Join(dir, "absent", "ch.idx"), whole("x")); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}

// TestLoad drives the load path over the test container: it hands build a
// verified file, heap or mapped, passes build's value and error through,
// and names the path exactly once in every error.
func TestLoad(t *testing.T) {
	data := buildTestFlat(t)
	path := tempFile(t, "test.flat", data)
	sections := func(f *FlatFile) (int, error) {
		if !f.Verified() {
			t.Error("build was handed an unverified file")
		}
		return f.NumSections(), nil
	}
	if _, err := Load(tempFile(t, "text.flat", []byte("p sp 5 4\n")), false, sections); !errors.Is(err, ErrNotFlat) {
		t.Errorf("Load of text: err = %v, want ErrNotFlat", err)
	}
	for _, mmap := range []bool{false, true} {
		if n, err := Load(path, mmap, sections); n != 5 || err != nil {
			t.Errorf("Load (mmap=%v) = %d, %v", mmap, n, err)
		}
	}

	boom := errors.New("injected: built for another graph")
	var handed *FlatFile
	fails := func(f *FlatFile) (int, error) { handed = f; return 7, boom }
	n, err := Load(path, true, fails)
	if n != 0 || !errors.Is(err, boom) || strings.Count(err.Error(), path) != 1 {
		t.Errorf("Load with a failing build = %d, %v; want 0 and the build's error naming the path once", n, err)
	}
	if !handed.closed.Load() {
		t.Error("Load left the file open after build failed")
	}

	mut := bytes.Clone(data)
	mut[bytes.Index(mut, []byte("payload"))] ^= 1 // inside the u8 section
	path = tempFile(t, "test.flat", mut)
	if _, err := Load(path, true, sections); !errors.Is(err, ErrCorrupt) || strings.Count(err.Error(), path) != 1 {
		t.Errorf("Load of a flipped byte: err = %v, want ErrCorrupt naming the path once", err)
	}
	if _, err := Load(path+".absent", true, sections); !errors.Is(err, os.ErrNotExist) || strings.Count(err.Error(), path) != 1 {
		t.Errorf("Load of a missing file: err = %v, want ErrNotExist naming the path once", err)
	}
}
