package binio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The one way on and off disk. Every persisted kind (graph, CH, TNR, SILC,
// PCPD, R-tree) has a Save(w) and a constructor over an open *FlatFile;
// Load turns that constructor into the kind's file loader, and WriteFile
// puts Save's bytes under a path.

// Load is the load path: OpenFlat, then build over the open file. What
// build returns aliases the file and owns it from then on — build records
// it as the object's backing, to be closed with the object; when build
// fails Load closes it. Errors name path once.
func Load[T any](path string, preferMmap bool, build func(*FlatFile) (T, error), opts ...OpenOption) (T, error) {
	var zero T
	f, err := OpenFlat(path, preferMmap, opts...)
	if err != nil {
		return zero, err
	}
	v, err := build(f)
	if err != nil {
		f.Close()
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// WriteFile puts what save writes under path, all of it or none: the bytes
// go to a temporary file in path's directory that is renamed over path only
// after save and Close both succeeded, and removed otherwise. Whatever
// kills the writer, path names either its previous content or the complete
// new one, never a prefix. There is no fsync: what is written this way are
// caches, rebuildable from their source after a machine crash.
func WriteFile(path string, save func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = save(tmp)
	if err == nil {
		// CreateTemp makes the file private; a cache is read by other
		// processes (spverify, a second server mapping the same index).
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
